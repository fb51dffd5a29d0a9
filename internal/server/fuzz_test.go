package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/workloads"
)

// FuzzMapRequest sends a /v1/map request built from typed arguments through
// the handler of a 1-worker server: the workload kind (app, synth or
// stencil) and its fields, a topology of 2-4 layers of at most 64 nodes,
// the scheme, balance threshold, alpha, beta and dependence mode. Every
// field is folded into a range that keeps one input small and fast
// (synth extent <= 4096 and passes <= 8, stencil grids <= 256x256, element
// sizes <= 512 bytes), except that chunk_kb and the synth and stencil chunk
// sizes reach the int64 edge, where a size whose bytes overflow must be a
// 400: larger chunks only make a plan cheaper. No answer may be a 500, and
// no panic may be recovered. A crasher lands in
// testdata/fuzz/FuzzMapRequest.
func FuzzMapRequest(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(3), uint16(0), uint16(0), int8(0), int8(0), int8(0), false, int8(0), int64(0), int64(0),
		uint8(1), uint32(0x020201), uint32(0x040810), uint8(4), uint8(0), 0.1, 0.5, 0.5) // sar on 2/6/18, inter-sched
	f.Add(uint8(1), uint8(0), uint8(2), uint16(512), uint16(16), int8(1), int8(3), int8(2), true, int8(3), int64(4096), int64(0),
		uint8(0), uint32(0x0202), uint32(0x0408), uint8(3), uint8(1), 0.2, 0.25, 1.0) // a synth with a hot table
	f.Add(uint8(2), uint8(0), uint8(2), uint16(32), uint16(48), int8(1), int8(-1), int8(0), false, int8(0), int64(0), int64(2),
		uint8(2), uint32(0x02020202), uint32(0x02040810), uint8(2), uint8(2), 0.05, 0.0, 0.0) // a stencil on 4 layers, merge
	f.Add(uint8(0), uint8(2), uint8(8), uint16(0), uint16(0), int8(0), int8(0), int8(0), false, int8(0), int64(0), int64(1)<<53,
		uint8(1), uint32(0x080402), uint32(0x040810), uint8(3), uint8(0), 0.1, 0.5, 0.5) // chunk_kb 2^53: its bytes overflow
	f.Fuzz(func(t *testing.T, kind, app, passes uint8, a, b uint16, stride, offset, drift int8, flag bool,
		elem int8, chunk, chunkKB int64, layers uint8, nodes, caps uint32, scheme, dep uint8, threshold, alpha, beta float64) {
		// elemBytes keeps a negative or zero (default) element size and
		// otherwise picks one of 64, 128, 256 and 512 bytes; chunkBytes
		// keeps a negative or zero chunk size and raises any other to at
		// least 2 KiB.
		elemBytes := func(v int8) int64 {
			if v <= 0 {
				return int64(v)
			}
			return 64 << (v % 4)
		}
		chunkBytes := func(v int64) int64 {
			if v <= 0 {
				return v
			}
			return max(v, 2048)
		}
		var w WorkloadSpec
		switch kind % 3 {
		case 0:
			w.App = workloads.Names()[int(app)%len(workloads.Names())]
			w.Scale = int(passes % 16)
		case 1:
			w.Synth = &workloads.SynthSpec{
				Passes: int64(passes % 9), Extent: int64(a % 4097), HotTable: int64(b % 257), PerPassOut: flag,
				Streams:   []workloads.StreamSpec{{Stride: int64(stride % 5), Offset: int64(offset), Drift: int64(drift % 17)}},
				ElemBytes: elemBytes(elem), ChunkBytes: chunkBytes(chunk),
			}
		default:
			w.Stencil = &workloads.StencilSpec{
				Passes: int64(passes % 5), Rows: int64(a % 257), Cols: int64(b % 257), InPlace: flag,
				Offsets:   [][2]int64{{int64(stride % 4), int64(offset % 4)}, {int64(drift % 4), 0}},
				ElemBytes: elemBytes(elem), ChunkBytes: chunkBytes(chunk),
			}
		}
		w.ChunkKB = chunkKB
		var counts, capacities []string
		n := 1
		for i := range 2 + int(layers%3) {
			n = min(64, n*(1+int(nodes>>(8*i))%4))
			counts = append(counts, strconv.Itoa(n))
			capacities = append(capacities, strconv.Itoa(int(caps>>(8*i)&0xff)%33))
		}
		body, err := json.Marshal(MapRequest{
			Workload:         w,
			Topology:         strings.Join(counts, "/") + "@" + strings.Join(capacities, ","),
			Scheme:           []string{"", "original", "intra", "inter", "inter-sched", "nosuch"}[scheme%6],
			BalanceThreshold: threshold,
			Alpha:            alpha,
			Beta:             beta,
			DepMode:          []string{"", "ignore", "merge", "sync", "nosuch"}[dep%5],
		})
		if err != nil {
			return // a NaN or infinite float has no JSON form
		}
		s := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Second})
		defer s.Close()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s answered 500: %s", body, rec.Body)
		}
		if got := s.panics.With("/v1/map").Value(); got != 0 {
			t.Fatalf("%s recovered %d panics", body, got)
		}
	})
}

// FuzzPlanWire feeds arbitrary bytes to the two places a plan arrives from
// outside this process: the plan-log codec's Decode (a disk record) and
// the fill check (a peer-fill body, for one fixed job). Neither may panic.
// Whatever Decode accepts must splice into a /v1/map body that json.Valid
// accepts, its plan beginning with this build's schema member; whatever
// the fill check accepts must map each of the job's iterations exactly
// once. A crasher lands in testdata/fuzz/FuzzPlanWire.
func FuzzPlanWire(f *testing.F) {
	req := synthReq(64)
	j, err := buildJob(req)
	if err != nil {
		f.Fatal(err)
	}
	key, err := PlanKey(req)
	if err != nil {
		f.Fatal(err)
	}
	mr, err := newTestServer(f, Config{}).ComputePlan(req)
	if err != nil {
		f.Fatal(err)
	}
	fill := fillResponse{Plan: mr.Plan, Stages: mr.Stages, CacheKey: key.String(), Node: "10.0.0.7:8700"}
	honest, err := json.Marshal(fill)
	if err != nil {
		f.Fatal(err)
	}
	// Client 0 also runs client 1's first block.
	fill.Plan.Work = append(fill.Plan.Work[:0:0], fill.Plan.Work...)
	fill.Plan.Work[0] = append(fill.Plan.Work[0][:len(fill.Plan.Work[0]):len(fill.Plan.Work[0])], fill.Plan.Work[1][0])
	overlapping, err := json.Marshal(fill)
	if err != nil {
		f.Fatal(err)
	}
	codec := planCodec()
	if _, err := codec.Decode([]byte(planRecordGolden)); err != nil {
		f.Fatalf("Decode(golden): %v", err)
	}
	if _, err := checkFill(honest, j); err != nil {
		f.Fatalf("fill check refuses the honest body: %v", err)
	}
	if _, err := checkFill(overlapping, j); err == nil {
		f.Fatal("fill check accepts overlapping runs")
	}
	f.Add([]byte(planRecordGolden))
	f.Add([]byte(planRecordGolden[:strings.Index(planRecordGolden, `"explicit"`)]))
	f.Add([]byte(strings.Replace(planRecordGolden, `"schema":1`, `"schema":2`, 1)))
	f.Add(honest)
	f.Add(overlapping)
	f.Add([]byte{})

	nest := j.work.Prog.Nest
	f.Fuzz(func(t *testing.T, data []byte) {
		if cp, err := codec.Decode(data); err == nil {
			mr := &MapResponse{raw: cp.Plan, Stages: cp.Stages, CacheKey: key.String(), Cached: true,
				FilledFrom: cp.FilledFrom, Replanned: cp.Replanned, ReusedStages: cp.ReusedStages}
			var b bytes.Buffer
			if err := mr.render(&b); err != nil {
				t.Fatalf("render of an accepted record: %v", err)
			}
			var body struct {
				Plan json.RawMessage `json:"plan"`
			}
			if !json.Valid(b.Bytes()) || json.Unmarshal(b.Bytes(), &body) != nil {
				t.Fatalf("accepted record renders an invalid body: %s", b.Bytes())
			}
			if !bytes.HasPrefix(body.Plan, planSchemaPrefix) {
				t.Fatalf("accepted record serves a plan of another schema: %s", body.Plan)
			}
		}
		cp, err := checkFill(data, j)
		if err != nil {
			return
		}
		plan, err := cp.Plan.decode()
		if err != nil {
			t.Fatalf("accepted fill does not decode: %v", err)
		}
		seen := make([]bool, nest.BoxSize())
		var n int64
		mark := func(i int64) {
			if i < 0 || i >= int64(len(seen)) || seen[i] {
				t.Fatalf("accepted fill maps iteration %d outside the box or twice", i)
			}
			seen[i] = true
			n++
		}
		for _, blocks := range plan.Work {
			for _, b := range blocks {
				for _, r := range b.Runs {
					for i := r[0]; i < r[1]; i++ {
						mark(i)
					}
				}
				for _, i := range b.Explicit {
					mark(i)
				}
			}
		}
		nest.ForEach(func(it []int64) bool {
			if i := nest.IterToIndex(it); !seen[i] {
				t.Fatalf("accepted fill leaves iteration %d unmapped", i)
			}
			return true
		})
		if n != nest.Size() {
			t.Fatalf("accepted fill maps %d iterations, the job has %d", n, nest.Size())
		}
	})
}

// FuzzJSONValueEnd holds the plan-log record's validator to json.Valid,
// its reference: on every input, jsonValueEnd finds a value followed only
// by whitespace exactly when json.Valid accepts the input, and an end it
// returns closes a value json.Valid accepts. A crasher lands in
// testdata/fuzz/FuzzJSONValueEnd.
func FuzzJSONValueEnd(f *testing.F) {
	for _, seed := range []string{
		planRecordGolden,
		nestedJSON(jsonMaxDepth),
		nestedJSON(jsonMaxDepth + 1),
		`"\" \\ \/ \b \f \n \r \t \u00e9 \uD83D\uDE00 \u0000"`,
		`"\u12G4"`, `"\u12"`, `"\x"`, `"\`,
		"\"\x01\"", "\"\xff\"", "\"\x7f\"",
		"-", "01", "1.", "1e", "-0.0e+1", "1E+2", "-01", "1.5e-3",
		"tru", "true", " null ", "false x",
		`{"a":[1,{"b":null}],"c":{}}`, `{"a" 1}`, `{"a":1,}`, `[1,]`, `[,1]`, `{,}`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e := jsonValueEnd(b, 0)
		if got, want := e >= 0 && jsonSpaceEnd(b, e) == len(b), json.Valid(b); got != want {
			t.Fatalf("jsonValueEnd = %d (a whole value: %v), json.Valid = %v, on %q", e, got, want, b)
		}
		if e >= 0 && !json.Valid(b[:e]) {
			t.Fatalf("jsonValueEnd = %d, but json.Valid rejects %q", e, b[:e])
		}
	})
}

// nestedJSON is a value nested depth levels deep, alternating arrays and
// objects so both kinds cross the validator's stack words.
func nestedJSON(depth int) string {
	var b strings.Builder
	for d := 0; d < depth; d++ {
		if d%2 == 0 {
			b.WriteString("[")
		} else {
			b.WriteString(`{"k":`)
		}
	}
	b.WriteString("0")
	for d := depth - 1; d >= 0; d-- {
		if d%2 == 0 {
			b.WriteString("]")
		} else {
			b.WriteString("}")
		}
	}
	return b.String()
}

// TestAllocJSONValueEnd: the validator allocates nothing, on a record and
// at the deepest nesting it accepts (ci.sh runs every TestAlloc* with
// GOGC=off).
func TestAllocJSONValueEnd(t *testing.T) {
	if race.Enabled {
		t.Skip("the alloc gate runs without -race")
	}
	for _, in := range []string{planRecordGolden, nestedJSON(jsonMaxDepth)} {
		b := []byte(in)
		if e := jsonValueEnd(b, 0); e != len(b) {
			t.Fatalf("jsonValueEnd = %d on a valid value of %d bytes", e, len(b))
		}
		if allocs := testing.AllocsPerRun(100, func() { jsonValueEnd(b, 0) }); allocs != 0 {
			t.Fatalf("jsonValueEnd allocates %v objects/op, want 0", allocs)
		}
	}
}
