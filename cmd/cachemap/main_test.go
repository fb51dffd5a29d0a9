package main

import (
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hierarchy"
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
