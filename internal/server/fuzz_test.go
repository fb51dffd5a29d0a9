package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/race"
)

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
	if _, err := checkFill(honest, key, j); err != nil {
		f.Fatalf("fill check refuses the honest body: %v", err)
	}
	if _, err := checkFill(overlapping, key, j); err == nil {
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
		cp, err := checkFill(data, key, j)
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
