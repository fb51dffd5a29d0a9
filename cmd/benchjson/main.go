// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON ledger mapping benchmark name → {ns/op, B/op, allocs/op and
// any custom metrics}, keyed under a label (typically "before" or
// "after"). When the output file already exists, new results are merged
// into it, so successive runs under different labels build a
// before/after comparison (see BENCH.json at the repository root).
// Repeated samples of one benchmark within a single run (go test
// -count=N) are folded to the per-metric minimum, exactly as compare
// mode folds them, so the ledger anchors the cleanest sample.
//
// Input lines are echoed to stdout, so the command composes as a filter:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json -label after
//
// Compare mode turns a committed ledger into a regression gate: instead of
// writing a file, fresh results on stdin are compared against the ledger's
// entries under -label, and the command fails if any benchmark's ns/op —
// or any of its time-like custom metrics (…ms/op) — regressed by more than
// -tolerance percent. Repeated samples of the same benchmark (go test
// -count=N) are folded by taking the per-metric minimum before comparing,
// so a single noisy sample on a busy machine does not trip the gate:
//
//	go test -run '^$' -bench BenchmarkDistribute -count 3 ./internal/core | benchjson -compare BENCH.json -tolerance 25
//
// Custom metrics whose unit ends in "-floor" invert the gate: the ledger
// value is a hard lower bound the measurement must meet or exceed (e.g. a
// speedup-floor of 5 fails any run that measures less than 5x), -tolerance
// does not soften it, and -count=N samples fold by maximum — interference
// can only lower a speedup, so the best sample is the least contaminated.
//
// When the ledger records B/op or allocs/op (from -benchmem) and the fresh
// run reports them too, they gate under the separate -alloc-tolerance
// percentage — allocation counts are nearly deterministic, so their
// tolerance is much tighter than the wall-clock one, and a ledger value of
// zero is exact: any measured allocation fails a zero-alloc entry.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement under one label.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the on-disk schema: benchmark name → label → result.
type File struct {
	Benchmarks map[string]map[string]*Result `json:"benchmarks"`
}

// parseLine parses one `go test -bench` result line, returning ok=false
// for non-benchmark lines (headers, PASS/ok, test logs).
func parseLine(line string) (name string, res *Result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", nil, false
	}
	res = &Result{Iterations: iters}
	// The remainder is value/unit pairs: "123 ns/op", "45 B/op",
	// "6 allocs/op", plus custom metrics like "1.5 similarity-ms/op".
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			b := int64(v)
			res.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			res.AllocsPerOp = &a
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return fields[0], res, true
}

func run(out, label string) error {
	file := File{Benchmarks: make(map[string]map[string]*Result)}
	if prev, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(prev, &file); err != nil {
			return fmt.Errorf("existing %s is not a benchjson file: %v", out, err)
		}
		if file.Benchmarks == nil {
			file.Benchmarks = make(map[string]map[string]*Result)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	parsed := 0
	seen := make(map[string]bool) // names folded during this invocation
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		name, res, ok := parseLine(line)
		if !ok {
			continue
		}
		if file.Benchmarks[name] == nil {
			file.Benchmarks[name] = make(map[string]*Result)
		}
		// Repeated samples within one invocation (go test -count=N) fold
		// to the per-metric minimum, mirroring compare mode: the ledger
		// anchors the least-contaminated sample, not the last one. A
		// stale entry from a previous recording run is still replaced
		// outright by this run's first sample.
		if seen[name] {
			res = foldResults(file.Benchmarks[name][label], res)
		}
		seen[name] = true
		file.Benchmarks[name][label] = res
		parsed++
	}
	if err := sc.Err(); err != nil {
		return err
	}

	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks under label %q in %s\n", parsed, label, out)
	return nil
}

// comparison is the outcome of checking one measured value against the
// ledger.
type comparison struct {
	bench  string  // benchmark name
	what   string  // "ns/op" or a custom metric unit
	old    float64 // ledger value
	new    float64 // measured value
	deltaP float64 // percent change, positive = slower (floors: negative = below)
	floor  bool    // "-floor" unit: ledger value is a hard lower bound
	failed bool
}

// isFloor reports whether a custom metric unit gates as a lower bound.
func isFloor(unit string) bool { return strings.HasSuffix(unit, "-floor") }

// foldResults merges two samples of the same benchmark into one by taking
// the per-metric minimum — on a shared machine interference only ever
// slows a run down (and a GC mid-sample can only evict pools, inflating
// B/op and allocs/op), so the smallest sample is the least contaminated.
// "-floor" metrics fold by maximum for the same reason: interference can
// only lower a speedup. Both record mode (-o) and compare mode use this,
// so a committed ledger anchors exactly what the gate would measure. The
// first argument is mutated and returned; b may be nil.
func foldResults(b, res *Result) *Result {
	if b == nil {
		return res
	}
	if res.NsPerOp < b.NsPerOp {
		b.NsPerOp = res.NsPerOp
	}
	if res.BytesPerOp != nil && (b.BytesPerOp == nil || *res.BytesPerOp < *b.BytesPerOp) {
		b.BytesPerOp = res.BytesPerOp
	}
	if res.AllocsPerOp != nil && (b.AllocsPerOp == nil || *res.AllocsPerOp < *b.AllocsPerOp) {
		b.AllocsPerOp = res.AllocsPerOp
	}
	for unit, v := range res.Metrics {
		prev, seen := b.Metrics[unit]
		better := v < prev
		if isFloor(unit) {
			better = v > prev
		}
		if !seen || better {
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b
}

// compare parses benchmark output from in (echoing to echo), folds
// repeated samples of the same benchmark (go test -count=N) into one
// result by taking the per-metric minimum — on a shared machine
// interference only ever slows a run down, so the fastest sample is the
// least contaminated — and checks every folded benchmark that the ledger
// records under label: ns/op and any time-like custom metric (unit
// containing "ms/op") must not exceed the ledger value by more than
// tolerance percent. Benchmarks absent from the ledger are skipped; zero
// overlap is an error (an empty gate guards nothing).
func compare(in io.Reader, echo io.Writer, ledgerPath, label string, tolerance, allocTolerance float64) ([]comparison, error) {
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		return nil, err
	}
	var ledger File
	if err := json.Unmarshal(raw, &ledger); err != nil {
		return nil, fmt.Errorf("%s is not a benchjson file: %v", ledgerPath, err)
	}

	best := make(map[string]*Result)
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		name, res, ok := parseLine(line)
		if !ok {
			continue
		}
		b, seen := best[name]
		if !seen {
			best[name] = res
			order = append(order, name)
			continue
		}
		best[name] = foldResults(b, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	var comps []comparison
	check := func(bench, what string, old, new float64) {
		if old <= 0 {
			return
		}
		deltaP := 100 * (new - old) / old
		comps = append(comps, comparison{
			bench: bench, what: what, old: old, new: new,
			deltaP: deltaP, failed: deltaP > tolerance,
		})
	}
	checkFloor := func(bench, what string, floor, new float64) {
		if floor <= 0 {
			return
		}
		comps = append(comps, comparison{
			bench: bench, what: what, old: floor, new: new,
			deltaP: 100 * (new - floor) / floor, floor: true, failed: new < floor,
		})
	}
	// checkAlloc gates an allocation stat under allocTolerance. Unlike
	// wall-clock checks a ledger value of zero is meaningful and exact:
	// a zero-alloc entry fails on any measured allocation.
	checkAlloc := func(bench, what string, old, new int64) {
		var deltaP float64
		failed := false
		switch {
		case old > 0:
			deltaP = 100 * float64(new-old) / float64(old)
			failed = deltaP > allocTolerance
		case new > 0:
			deltaP = math.Inf(1)
			failed = true
		}
		comps = append(comps, comparison{
			bench: bench, what: what, old: float64(old), new: float64(new),
			deltaP: deltaP, failed: failed,
		})
	}
	for _, name := range order {
		old, ok := ledger.Benchmarks[name][label]
		if !ok {
			continue
		}
		res := best[name]
		check(name, "ns/op", old.NsPerOp, res.NsPerOp)
		// Allocation stats gate only when both sides report them: a ledger
		// written with -benchmem still composes with a quick gate run that
		// skipped it.
		if old.BytesPerOp != nil && res.BytesPerOp != nil {
			checkAlloc(name, "B/op", *old.BytesPerOp, *res.BytesPerOp)
		}
		if old.AllocsPerOp != nil && res.AllocsPerOp != nil {
			checkAlloc(name, "allocs/op", *old.AllocsPerOp, *res.AllocsPerOp)
		}
		// Time-like custom metrics (e.g. the pipeline's similarity-ms/op)
		// gate too; counts and ratios are informational only.
		units := make([]string, 0, len(old.Metrics))
		for unit := range old.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			v, measured := res.Metrics[unit]
			switch {
			case isFloor(unit):
				// A floor the fresh run never reported is a failure, not a
				// skip: deleting the metric must not disarm the gate.
				if !measured {
					v = 0
				}
				checkFloor(name, unit, old.Metrics[unit], v)
			case strings.Contains(unit, "ms/op"):
				if measured {
					check(name, unit, old.Metrics[unit], v)
				}
			}
		}
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("no benchmark on stdin matched ledger %s under label %q", ledgerPath, label)
	}
	return comps, nil
}

func runCompare(ledgerPath, label string, tolerance, allocTolerance float64) error {
	comps, err := compare(os.Stdin, os.Stdout, ledgerPath, label, tolerance, allocTolerance)
	if err != nil {
		return err
	}
	failures := 0
	for _, c := range comps {
		verdict := "ok"
		if c.failed {
			verdict = "REGRESSION"
			if c.floor {
				verdict = "BELOW FLOOR"
			}
			failures++
		}
		if c.floor {
			fmt.Fprintf(os.Stderr, "benchjson: %-11s %s %s: floor %.4g, measured %.4g (%+.1f%%)\n",
				verdict, c.bench, c.what, c.old, c.new, c.deltaP)
			continue
		}
		tol := tolerance
		if c.what == "B/op" || c.what == "allocs/op" {
			tol = allocTolerance
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-11s %s %s: %.4g -> %.4g (%+.1f%%, tolerance %+.0f%%)\n",
			verdict, c.bench, c.what, c.old, c.new, c.deltaP, tol)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d checks regressed beyond %.0f%% of ledger %s", failures, len(comps), tolerance, ledgerPath)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d checks within tolerance of %s\n", len(comps), ledgerPath)
	return nil
}

func main() {
	out := flag.String("o", "BENCH.json", "output JSON file (merged if it exists)")
	label := flag.String("label", "after", "label to record results under (or compare against, with -compare)")
	compareTo := flag.String("compare", "", "compare stdin results against this ledger instead of writing a file")
	tolerance := flag.Float64("tolerance", 25, "compare mode: max allowed ns/op (and …ms/op) regression, percent")
	allocTolerance := flag.Float64("alloc-tolerance", 10, "compare mode: max allowed B/op and allocs/op regression, percent (a zero-alloc ledger entry is exact)")
	flag.Parse()
	var err error
	if *compareTo != "" {
		err = runCompare(*compareTo, *label, *tolerance, *allocTolerance)
	} else {
		err = run(*out, *label)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
