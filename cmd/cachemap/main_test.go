package main

import (
	"bytes"
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// levels summarizes a tree per level: node count and cache capacity.
func levels(tr *hierarchy.Tree) [][2]int {
	var out [][2]int
	for _, n := range tr.Nodes() {
		for len(out) <= n.Level {
			out = append(out, [2]int{})
		}
		out[n.Level] = [2]int{out[n.Level][0] + 1, n.CacheChunks}
	}
	return out
}

// TestTopoConfig: a -topo spec sets every layer of the config, and the
// config rebuilds the parsed tree level by level. One storage node is the
// parsed tree's root, which once left the storage layer at its default of
// 16 nodes and made the rebuild panic.
func TestTopoConfig(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want [6]int // clients, I/O, storage nodes; client, I/O, storage caches
	}{
		{"1/2/4@16,8,4", [6]int{4, 2, 1, 4, 8, 16}},
		{"16/32/64@16,8,4", [6]int{64, 32, 16, 4, 8, 16}},
		{"4/8/16", [6]int{16, 8, 4, 8, 8, 8}},
		{"2/4@8,4", [6]int{4, 2, 1, 4, 8, 0}},
	} {
		tr, err := hierarchy.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := experiments.DefaultConfig()
		topoConfig(&cfg, tr)
		got := [6]int{cfg.Clients, cfg.IONodes, cfg.StorageNodes, cfg.CacheL1, cfg.CacheL2, cfg.CacheL3}
		if got != tc.want {
			t.Errorf("%s: config %v, want %v", tc.spec, got, tc.want)
			continue
		}
		if want, rebuilt := levels(tr), levels(cfg.Tree()); !slices.Equal(want, rebuilt) {
			t.Errorf("%s: rebuilt tree has levels %v, want %v", tc.spec, rebuilt, want)
		}
	}
}

// TestStageTable: the -v table has a header and one row per stage Map
// reports, in its order, each with the stage's duration.
func TestStageTable(t *testing.T) {
	w, err := workloads.Get("apsi", 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hierarchy.Parse("2/4/8@16,8,4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Map(context.Background(), pipeline.InterProcessor, w.Prog, pipeline.Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	schemes := []pipeline.Scheme{pipeline.InterProcessor}
	stageTable(&buf, schemes, map[pipeline.Scheme][]pipeline.StageTiming{pipeline.InterProcessor: res.Stages})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := strings.Fields(lines[0]); len(got) != 4 || got[1] != "stage" || got[2] != "duration" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines)-1 != len(res.Stages) {
		t.Fatalf("table has %d rows for %d stages:\n%s", len(lines)-1, len(res.Stages), buf.String())
	}
	for i, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("row %q: %d cells, want 3", line, len(f))
		}
		if f[1] != res.Stages[i].Stage {
			t.Errorf("row %d is stage %q, want %q", i, f[1], res.Stages[i].Stage)
		}
		if _, err := strconv.ParseFloat(f[2], 64); err != nil {
			t.Errorf("%s duration %q, want milliseconds", f[1], f[2])
		}
	}
}
