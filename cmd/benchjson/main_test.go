package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, res, ok := parseLine("BenchmarkDistribute          \t       2\t   7993885 ns/op\t 8315672 B/op\t    6068 allocs/op")
	if !ok || name != "BenchmarkDistribute" {
		t.Fatalf("ok=%v name=%q", ok, name)
	}
	if res.Iterations != 2 || res.NsPerOp != 7993885 {
		t.Fatalf("res = %+v", res)
	}
	if res.BytesPerOp == nil || *res.BytesPerOp != 8315672 || res.AllocsPerOp == nil || *res.AllocsPerOp != 6068 {
		t.Fatalf("memstats = %+v", res)
	}
}

func TestParseLineCustomMetricsAndSuffix(t *testing.T) {
	name, res, ok := parseLine("BenchmarkPipelineParallelism/workers=1#01 \t 1\t7684075894 ns/op\t 1042 similarity-ms/op\t 0.25 pairs-ratio\t 12.24 tag-ms/op")
	if !ok || name != "BenchmarkPipelineParallelism/workers=1#01" {
		t.Fatalf("ok=%v name=%q", ok, name)
	}
	if res.Metrics["similarity-ms/op"] != 1042 || res.Metrics["pairs-ratio"] != 0.25 {
		t.Fatalf("metrics = %v", res.Metrics)
	}
	if res.BytesPerOp != nil {
		t.Fatal("no B/op on this line")
	}
}

func TestParseLineRejectsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t27.847s",
		"BenchmarkBad notanumber 12 ns/op",
		"--- BENCH: BenchmarkX",
		"",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Fatalf("accepted %q", line)
		}
	}
}

// writeLedger materializes a benchjson File for compare-mode tests.
func writeLedger(t *testing.T, f File) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func ledgerWith(ns float64, metrics map[string]float64) File {
	return File{Benchmarks: map[string]map[string]*Result{
		"BenchmarkDistribute": {
			"after": {Iterations: 300, NsPerOp: ns, Metrics: metrics},
		},
	}}
}

func TestCompareWithinTolerance(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, nil))
	in := strings.NewReader("BenchmarkDistribute \t 300\t 1100000 ns/op\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || comps[0].failed {
		t.Fatalf("comps = %+v", comps)
	}
	if comps[0].deltaP < 9.9 || comps[0].deltaP > 10.1 {
		t.Fatalf("deltaP = %v, want ~10", comps[0].deltaP)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, nil))
	in := strings.NewReader("BenchmarkDistribute \t 300\t 1500000 ns/op\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || !comps[0].failed {
		t.Fatalf("50%% slower not flagged at 25%% tolerance: %+v", comps)
	}
}

// TestCompareInvertedTolerance verifies the gate actually trips: with a
// negative tolerance even an identical result must fail (the check the
// CI gate's wiring is validated with).
func TestCompareInvertedTolerance(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, nil))
	in := strings.NewReader("BenchmarkDistribute \t 300\t 1000000 ns/op\n")
	comps, err := compare(in, io.Discard, path, "after", -1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || !comps[0].failed {
		t.Fatalf("identical result passed a -1%% tolerance: %+v", comps)
	}
}

func TestCompareCustomMetricsGate(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, map[string]float64{
		"similarity-ms/op": 10,
		"pairs-ratio":      0.01, // not time-like: never gates
	}))
	in := strings.NewReader(
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 20 similarity-ms/op\t 0.5 pairs-ratio\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("want ns/op + similarity-ms/op checks, got %+v", comps)
	}
	var simFailed, ratioChecked bool
	for _, c := range comps {
		if c.what == "similarity-ms/op" && c.failed {
			simFailed = true
		}
		if c.what == "pairs-ratio" {
			ratioChecked = true
		}
	}
	if !simFailed {
		t.Fatalf("2x similarity-ms/op not flagged: %+v", comps)
	}
	if ratioChecked {
		t.Fatalf("pairs-ratio gated but should be informational: %+v", comps)
	}
}

// TestCompareFoldsRepeatedSamplesByMin: with go test -count=N the same
// benchmark appears N times; one interference-slowed sample must not trip
// the gate as long as the fastest sample is within tolerance.
func TestCompareFoldsRepeatedSamplesByMin(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, map[string]float64{
		"similarity-ms/op": 10,
	}))
	in := strings.NewReader(strings.Join([]string{
		"BenchmarkDistribute \t 300\t 2400000 ns/op\t 9 similarity-ms/op",
		"BenchmarkDistribute \t 300\t 1050000 ns/op\t 30 similarity-ms/op",
		"BenchmarkDistribute \t 300\t 1900000 ns/op\t 11 similarity-ms/op",
	}, "\n") + "\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	// One folded benchmark → one ns/op check + one similarity check, both
	// against the minimum across the three samples.
	if len(comps) != 2 {
		t.Fatalf("want 2 folded checks, got %+v", comps)
	}
	for _, c := range comps {
		if c.failed {
			t.Fatalf("min-folded %s flagged: %+v", c.what, c)
		}
		switch c.what {
		case "ns/op":
			if c.new != 1050000 {
				t.Fatalf("ns/op min = %v, want 1050000", c.new)
			}
		case "similarity-ms/op":
			if c.new != 9 {
				t.Fatalf("similarity min = %v, want 9", c.new)
			}
		}
	}
}

// TestCompareFloorMetricGate: a "-floor" unit inverts the gate — the
// ledger value is a hard lower bound that -tolerance does not soften.
func TestCompareFloorMetricGate(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, map[string]float64{
		"speedup-floor": 5,
	}))
	find := func(comps []comparison, what string) *comparison {
		for i := range comps {
			if comps[i].what == what {
				return &comps[i]
			}
		}
		return nil
	}

	// Meeting the floor passes.
	comps, err := compare(strings.NewReader(
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 7.2 speedup-floor\n"),
		io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := find(comps, "speedup-floor")
	if c == nil || !c.floor || c.failed {
		t.Fatalf("7.2 >= floor 5 flagged: %+v", comps)
	}

	// Dipping below fails even though the shortfall is within -tolerance.
	comps, err = compare(strings.NewReader(
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 4.5 speedup-floor\n"),
		io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c = find(comps, "speedup-floor"); c == nil || !c.failed {
		t.Fatalf("4.5 < floor 5 not flagged: %+v", comps)
	}

	// A run that stops reporting the metric fails rather than disarming
	// the gate.
	comps, err = compare(strings.NewReader(
		"BenchmarkDistribute \t 300\t 1000000 ns/op\n"),
		io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c = find(comps, "speedup-floor"); c == nil || !c.failed {
		t.Fatalf("missing floor metric not flagged: %+v", comps)
	}
}

// TestCompareFoldsFloorByMax: -count=N samples of a floor metric fold by
// maximum — interference only ever lowers a speedup, so the best sample
// is the least contaminated.
func TestCompareFoldsFloorByMax(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, map[string]float64{
		"speedup-floor": 5,
	}))
	in := strings.NewReader(strings.Join([]string{
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 3.1 speedup-floor",
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 6.4 speedup-floor",
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 4.9 speedup-floor",
	}, "\n") + "\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.what != "speedup-floor" {
			continue
		}
		if c.new != 6.4 {
			t.Fatalf("floor folded to %v, want max 6.4", c.new)
		}
		if c.failed {
			t.Fatalf("max sample 6.4 >= 5 flagged: %+v", c)
		}
		return
	}
	t.Fatalf("no speedup-floor check in %+v", comps)
}

func TestCompareSkipsUnknownAndRequiresOverlap(t *testing.T) {
	path := writeLedger(t, ledgerWith(1000000, nil))
	// A benchmark the ledger does not record is skipped…
	in := strings.NewReader(
		"BenchmarkNovel \t 10\t 999 ns/op\nBenchmarkDistribute \t 300\t 900000 ns/op\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || comps[0].bench != "BenchmarkDistribute" {
		t.Fatalf("comps = %+v", comps)
	}
	// …but zero overlap is an error, not a silent pass.
	if _, err := compare(strings.NewReader("BenchmarkNovel \t 10\t 999 ns/op\n"),
		io.Discard, path, "after", 25, 10); err == nil {
		t.Fatal("empty comparison did not fail")
	}
	// Unknown label behaves like zero overlap.
	if _, err := compare(strings.NewReader("BenchmarkDistribute \t 300\t 1 ns/op\n"),
		io.Discard, path, "nosuch", 25, 10); err == nil {
		t.Fatal("unknown label did not fail")
	}
}

// TestCompareAgainstCommittedLedger keeps the CI gate honest: the
// committed BENCH.json must contain the entries ci.sh gates on,
// including the allocation stats the alloc side of the gate compares, the
// sub-1ms BenchmarkDistribute steady state, the per-stage pipeline times
// (similarity, cluster, balance), the incremental re-planning speedup
// floor and the plan store's warm scan.
func TestCompareAgainstCommittedLedger(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Skipf("no committed ledger: %v", err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("BENCH.json does not parse: %v", err)
	}
	d, ok := f.Benchmarks["BenchmarkDistribute"]["after"]
	if !ok || d.NsPerOp <= 0 {
		t.Fatal("BENCH.json lacks BenchmarkDistribute/after")
	}
	if d.NsPerOp >= 1e6 {
		t.Fatalf("BenchmarkDistribute/after anchors at %.0f ns/op, want < 1ms", d.NsPerOp)
	}
	for _, name := range []string{"BenchmarkDistribute", "BenchmarkWarmScan"} {
		if r := f.Benchmarks[name]["after"]; r == nil || r.BytesPerOp == nil || r.AllocsPerOp == nil {
			t.Fatalf("%s/after lacks the B/op + allocs/op entries the alloc gate needs", name)
		}
	}
	for _, name := range []string{"BenchmarkPostings", "BenchmarkCacheHitServe", "BenchmarkWarmScan"} {
		r, ok := f.Benchmarks[name]["after"]
		if !ok || r.NsPerOp <= 0 {
			t.Fatalf("BENCH.json lacks %s/after", name)
		}
	}
	for _, metric := range []string{"similarity-ms/op", "cluster-ms/op", "balance-ms/op"} {
		found := false
		for name, labels := range f.Benchmarks {
			if strings.HasPrefix(name, "BenchmarkPipelineParallelism") {
				if r, ok := labels["after"]; ok && r.Metrics[metric] > 0 {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("BENCH.json lacks a pipeline %s entry under after", metric)
		}
	}
	if r := f.Benchmarks["BenchmarkReplanIncremental"]["after"]; r == nil || r.Metrics["speedup-floor"] < 5 {
		t.Fatal("BENCH.json lacks BenchmarkReplanIncremental's 5x speedup-floor under after")
	}
}

// allocLedger builds a ledger whose entry carries allocation stats.
func allocLedger(ns float64, bytesPerOp, allocsPerOp int64) File {
	return File{Benchmarks: map[string]map[string]*Result{
		"BenchmarkDistribute": {
			"after": {Iterations: 300, NsPerOp: ns, BytesPerOp: &bytesPerOp, AllocsPerOp: &allocsPerOp},
		},
	}}
}

// TestCompareAllocGate: B/op and allocs/op gate under the separate alloc
// tolerance — tighter than the wall-clock one — and only when measured.
func TestCompareAllocGate(t *testing.T) {
	path := writeLedger(t, allocLedger(1000000, 50000, 700))
	// 5% more bytes and 30% more allocs at 10% alloc tolerance: bytes pass,
	// allocs fail, even though both are far inside the 25% ns/op tolerance.
	in := strings.NewReader("BenchmarkDistribute \t 300\t 1000000 ns/op\t 52500 B/op\t 910 allocs/op\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("want ns/op + B/op + allocs/op checks, got %+v", comps)
	}
	for _, c := range comps {
		switch c.what {
		case "B/op":
			if c.failed {
				t.Fatalf("+5%% B/op failed a 10%% alloc tolerance: %+v", c)
			}
		case "allocs/op":
			if !c.failed {
				t.Fatalf("+30%% allocs/op passed a 10%% alloc tolerance: %+v", c)
			}
		}
	}
}

// TestCompareAllocZeroLedgerIsExact: a zero-alloc ledger entry fails on any
// measured allocation regardless of tolerance.
func TestCompareAllocZeroLedgerIsExact(t *testing.T) {
	path := writeLedger(t, allocLedger(1000000, 0, 0))
	in := strings.NewReader("BenchmarkDistribute \t 300\t 1000000 ns/op\t 16 B/op\t 1 allocs/op\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 1000)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, c := range comps {
		if (c.what == "B/op" || c.what == "allocs/op") && c.failed {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("nonzero measurement against zero-alloc ledger: %+v", comps)
	}
	// An exactly zero measurement passes.
	in = strings.NewReader("BenchmarkDistribute \t 300\t 1000000 ns/op\t 0 B/op\t 0 allocs/op\n")
	comps, err = compare(in, io.Discard, path, "after", 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.failed {
			t.Fatalf("zero measurement failed zero-alloc ledger: %+v", c)
		}
	}
}

// TestCompareAllocFoldsByMin: repeated -count samples fold allocation stats
// by minimum, mirroring ns/op.
func TestCompareAllocFoldsByMin(t *testing.T) {
	path := writeLedger(t, allocLedger(1000000, 50000, 700))
	in := strings.NewReader(strings.Join([]string{
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 90000 B/op\t 1400 allocs/op",
		"BenchmarkDistribute \t 300\t 1000000 ns/op\t 50100 B/op\t 701 allocs/op",
	}, "\n") + "\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.failed {
			t.Fatalf("min-folded alloc sample tripped the gate: %+v", c)
		}
		if c.what == "allocs/op" && c.new != 701 {
			t.Fatalf("allocs/op folded to %v, want min 701", c.new)
		}
	}
}

// TestCompareAllocSkippedWithoutBenchmem: a fresh run without -benchmem
// (no B/op fields) skips the allocation checks instead of failing them.
func TestCompareAllocSkippedWithoutBenchmem(t *testing.T) {
	path := writeLedger(t, allocLedger(1000000, 50000, 700))
	in := strings.NewReader("BenchmarkDistribute \t 300\t 1000000 ns/op\n")
	comps, err := compare(in, io.Discard, path, "after", 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 || comps[0].what != "ns/op" {
		t.Fatalf("want only the ns/op check, got %+v", comps)
	}
}

func TestFoldResultsPerMetricMin(t *testing.T) {
	b50, b70 := int64(50), int64(70)
	a5, a9 := int64(5), int64(9)
	first := &Result{
		Iterations: 100, NsPerOp: 1200, BytesPerOp: &b70, AllocsPerOp: &a5,
		Metrics: map[string]float64{"similarity-ms/op": 9.0, "speedup-floor": 3.0},
	}
	second := &Result{
		Iterations: 100, NsPerOp: 900, BytesPerOp: &b50, AllocsPerOp: &a9,
		Metrics: map[string]float64{"similarity-ms/op": 11.0, "speedup-floor": 4.0},
	}
	got := foldResults(first, second)
	if got.NsPerOp != 900 {
		t.Errorf("ns/op folded to %v, want min 900", got.NsPerOp)
	}
	if *got.BytesPerOp != 50 || *got.AllocsPerOp != 5 {
		t.Errorf("B/op=%d allocs/op=%d, want per-stat mins 50 and 5", *got.BytesPerOp, *got.AllocsPerOp)
	}
	if got.Metrics["similarity-ms/op"] != 9.0 {
		t.Errorf("time-like metric folded to %v, want min 9.0", got.Metrics["similarity-ms/op"])
	}
	if got.Metrics["speedup-floor"] != 4.0 {
		t.Errorf("floor metric folded to %v, want max 4.0", got.Metrics["speedup-floor"])
	}
	if r := (&Result{NsPerOp: 7}); foldResults(nil, r) != r {
		t.Error("foldResults(nil, r) should return r unchanged")
	}
	// A sample missing -benchmem stats must not erase stats already seen.
	bare := &Result{NsPerOp: 1000}
	if got := foldResults(got, bare); got.BytesPerOp == nil || *got.BytesPerOp != 50 {
		t.Error("folding a bare sample dropped the B/op stat")
	}
}

func TestRecordFoldsDuplicatesWithinInvocation(t *testing.T) {
	// run() reads os.Stdin, so drive it through a pipe. Two samples of the
	// same benchmark in one invocation must fold to the min; a stale entry
	// in the existing file must be replaced, not folded with.
	path := filepath.Join(t.TempDir(), "ledger.json")
	stale := `{"benchmarks":{"BenchmarkDistribute":{"after":{"iterations":1,"ns_per_op":1}}}}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	input := "BenchmarkDistribute \t 100\t 1200 ns/op\t 70 B/op\t 5 allocs/op\n" +
		"BenchmarkDistribute \t 100\t 900 ns/op\t 50 B/op\t 9 allocs/op\n"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	origStdin, origStdout := os.Stdin, os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdin, os.Stdout = r, devNull
	defer func() { os.Stdin, os.Stdout = origStdin, origStdout; devNull.Close() }()
	if _, err := w.WriteString(input); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := run(path, "after"); err != nil {
		t.Fatalf("run: %v", err)
	}
	os.Stdin, os.Stdout = origStdin, origStdout

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	got := f.Benchmarks["BenchmarkDistribute"]["after"]
	if got == nil {
		t.Fatal("BenchmarkDistribute/after missing from recorded ledger")
	}
	if got.NsPerOp != 900 {
		t.Errorf("recorded ns/op = %v, want min 900 (stale entry replaced, duplicates folded)", got.NsPerOp)
	}
	if got.BytesPerOp == nil || *got.BytesPerOp != 50 || got.AllocsPerOp == nil || *got.AllocsPerOp != 5 {
		t.Errorf("recorded B/op/allocs not folded to per-stat mins: %+v", got)
	}
}
