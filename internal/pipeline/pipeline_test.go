package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/obs"
)

func TestStageNamesCanonicalOrder(t *testing.T) {
	want := []string{"tags", "chunks", "similarity", "cluster", "balance", "schedule", "encode"}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StageNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStageErrorIdentifiesStage(t *testing.T) {
	base := errors.New("boom")
	err := &StageError{Stage: StageCluster, Err: base}
	if !errors.Is(err, base) {
		t.Error("StageError does not unwrap to its cause")
	}
	if FailedStage(err) != StageCluster {
		t.Errorf("FailedStage = %q, want %q", FailedStage(err), StageCluster)
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if FailedStage(wrapped) != StageCluster {
		t.Errorf("FailedStage through wrap = %q, want %q", FailedStage(wrapped), StageCluster)
	}
	if joined := errors.Join(base, err); FailedStage(joined) != StageCluster {
		t.Errorf("FailedStage through join = %q, want %q", FailedStage(joined), StageCluster)
	}
	if FailedStage(base) != "" {
		t.Errorf("FailedStage of plain error = %q, want empty", FailedStage(base))
	}
}

func TestRunAccumulatesPhases(t *testing.T) {
	r := NewRun(context.Background())
	for i := 0; i < 3; i++ {
		r.RecordPhase(StageSimilarity, time.Now(), time.Millisecond)
	}
	sts := r.Timings()
	if len(sts) != 1 || sts[0].Stage != StageSimilarity || sts[0].DurationMS != 3 {
		t.Fatalf("timings = %+v, want one similarity entry of 3ms", sts)
	}
}

func TestMapReportsStages(t *testing.T) {
	prog := stencilProgram(16)
	for _, tc := range []struct {
		scheme Scheme
		want   []string
	}{
		{Original, []string{StageChunks, StageEncode}},
		{IntraProcessor, []string{StageChunks, StageEncode}},
		{InterProcessorSched, []string{StageTags, StageChunks, StageSimilarity,
			StageCluster, StageBalance, StageSchedule, StageEncode}},
	} {
		res, err := Map(context.Background(), tc.scheme, prog, Config{Tree: testTree()})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, st := range res.Stages {
			seen[st.Stage] = true
			if st.DurationMS < 0 {
				t.Fatalf("%s: stage %s has negative duration", tc.scheme, st.Stage)
			}
		}
		for _, name := range tc.want {
			if !seen[name] {
				t.Fatalf("%s: stage %q missing from breakdown %v", tc.scheme, name, res.Stages)
			}
		}
		// Canonical order within the breakdown.
		rank := make(map[string]int)
		for i, name := range StageNames() {
			rank[name] = i
		}
		for i := 1; i < len(res.Stages); i++ {
			if rank[res.Stages[i-1].Stage] >= rank[res.Stages[i].Stage] {
				t.Fatalf("%s: stages out of canonical order: %v", tc.scheme, res.Stages)
			}
		}
	}
}

// TestMapDeterministicAcrossWorkers is the tentpole's determinism claim:
// the full plan wire form is byte-identical at any worker count.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	prog := stencilProgram(24)
	encode := func(workers int, scheme Scheme) string {
		res, err := Map(context.Background(), scheme, prog, Config{Tree: testTree(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res.Stages = nil // timing obviously varies
		b, err := json.Marshal(res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, scheme := range []Scheme{InterProcessor, InterProcessorSched} {
		want := encode(1, scheme)
		for _, workers := range []int{2, 4, 8} {
			if got := encode(workers, scheme); got != want {
				t.Fatalf("%s: assignment differs between 1 and %d workers", scheme, workers)
			}
		}
	}
}

func TestMapCanceledNamesStage(t *testing.T) {
	prog := stencilProgram(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, InterProcessorSched, prog, Config{Tree: testTree()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if FailedStage(err) == "" {
		t.Fatalf("canceled pipeline error names no stage: %v", err)
	}
}

func TestMapMultiCanceled(t *testing.T) {
	prog := stencilProgram(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapMulti(ctx, InterProcessor, []iosim.Program{prog, prog}, Config{Tree: testTree()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMapEmitsStageSpans: under a traced context every executed stage (and
// distributor phase) is recorded as a span whose summed duration agrees
// exactly with the run's ledger — the trace and the "stages" breakdown in
// API responses never disagree about where the time went.
func TestMapEmitsStageSpans(t *testing.T) {
	prog := stencilProgram(16)
	ctx, root := obs.StartRoot(context.Background(), "test", obs.TraceContext{})
	res, err := Map(ctx, InterProcessorSched, prog, Config{Tree: testTree()})
	if err != nil {
		t.Fatal(err)
	}
	trace := root.End()

	spanNS := make(map[string]int64)
	for _, sp := range trace.Spans {
		if sp.Name == "test" {
			continue
		}
		spanNS[sp.Name] += sp.DurationNS
		if sp.ParentID != trace.Spans[len(trace.Spans)-1].SpanID {
			t.Fatalf("stage span %s not parented under the root span", sp.Name)
		}
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stage breakdown")
	}
	for _, st := range res.Stages {
		ns, ok := spanNS[st.Stage]
		if !ok {
			t.Fatalf("no span for stage %q (spans: %v)", st.Stage, spanNS)
		}
		if got := float64(ns) / 1e6; got != st.DurationMS {
			t.Fatalf("stage %s: span duration %.9fms, ledger %.9fms", st.Stage, got, st.DurationMS)
		}
	}
}

// TestMapSimilarityPairLedger checks that the inter-processor scheme's
// result surfaces the sparse similarity engine's pair statistics on the
// similarity stage: some pairs were generated, and never more than the
// dense n(n−1)/2 bound the engine replaced. This (plus the core smoke
// test) is the CI gate that the sparse path is actually selected.
func TestMapSimilarityPairLedger(t *testing.T) {
	res, err := Map(context.Background(), InterProcessorSched, stencilProgram(16), Config{Tree: testTree()})
	if err != nil {
		t.Fatal(err)
	}
	var sim *StageTiming
	for i := range res.Stages {
		if res.Stages[i].Stage == StageSimilarity {
			sim = &res.Stages[i]
		}
	}
	if sim == nil {
		t.Fatalf("no similarity stage in %v", res.Stages)
	}
	if sim.PairsDense <= 0 {
		t.Fatal("pairs_dense not recorded: sparse engine did not report stats")
	}
	if sim.PairsGenerated <= 0 || sim.PairsGenerated > sim.PairsDense {
		t.Fatalf("pairs_generated = %d, want in (0, %d]", sim.PairsGenerated, sim.PairsDense)
	}
	for _, st := range res.Stages {
		if st.Stage != StageSimilarity && (st.PairsGenerated != 0 || st.PairsDense != 0) {
			t.Fatalf("stage %s carries pair stats %d/%d", st.Stage, st.PairsGenerated, st.PairsDense)
		}
	}
}
