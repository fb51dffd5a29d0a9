package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workloads"
)

// envelope is the part of a /v1/map response the checks read; the plan
// stays raw so its bytes can be compared across serves.
type envelope struct {
	Plan      json.RawMessage `json:"plan"`
	CacheKey  string          `json:"cache_key"`
	Cached    bool            `json:"cached"`
	Replanned string          `json:"replanned"`
	Degraded  string          `json:"degraded"`
}

// checker validates every served plan and keeps what plan_io_norm needs.
type checker struct {
	want provenance
	// first maps a plan key to the hash of its first served plan bytes.
	first map[string][sha256.Size]byte
	// kept holds the plan bytes of the keys chosen for plan_io_norm.
	kept    map[string][]byte
	keep    func(request) bool
	progs   map[string]progInfo
	failed  int
	errs    []string
	planKB  float64 // summed plan size over timed responses
	planNum int
}

// progInfo caches what checking a plan needs per workload spec.
type progInfo struct {
	prog  iosim.Program
	valid []bool // valid[i]: box index i is an executing iteration
	count int64
}

func newChecker(want provenance, keep func(request) bool) *checker {
	return &checker{
		want:  want,
		first: make(map[string][sha256.Size]byte),
		kept:  make(map[string][]byte),
		keep:  keep,
		progs: make(map[string]progInfo),
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check validates one response; timed responses must also carry the
// workload's provenance.
func (c *checker) check(r request, status int, body []byte, timed bool) {
	if status != 200 {
		c.fail("%s: status %d: %.200s", r.key[:12], status, body)
		return
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		c.fail("%s: undecodable response: %v", r.key[:12], err)
		return
	}
	if env.CacheKey != r.key {
		c.fail("%s: response for key %.12s", r.key[:12], env.CacheKey)
		return
	}
	if env.Degraded != "" {
		c.fail("%s: degraded response (%s)", r.key[:12], env.Degraded)
		return
	}
	if timed {
		switch c.want {
		case wantFull:
			if env.Cached || env.Replanned != server.ReplanFull {
				c.fail("%s: cached=%v replanned=%q, want a full compute", r.key[:12], env.Cached, env.Replanned)
				return
			}
		case wantCached:
			if !env.Cached {
				c.fail("%s: not served from the plan cache", r.key[:12])
				return
			}
		case wantIncremental:
			if env.Replanned != server.ReplanIncremental {
				c.fail("%s: replanned=%q, want incremental", r.key[:12], env.Replanned)
				return
			}
		}
		c.planKB += float64(len(env.Plan)) / 1024
		c.planNum++
	}
	sum := sha256.Sum256(env.Plan)
	if prev, ok := c.first[r.key]; ok {
		if prev != sum {
			c.fail("%s: re-served plan bytes differ from the first serve", r.key[:12])
		}
		return
	}
	c.first[r.key] = sum
	if err := c.partition(r, env.Plan); err != nil {
		c.fail("%s: %v", r.key[:12], err)
		return
	}
	if c.keep != nil && c.keep(r) {
		c.kept[r.key] = append([]byte(nil), env.Plan...)
	}
}

func (c *checker) prog(spec server.WorkloadSpec) (progInfo, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return progInfo{}, err
	}
	if pi, ok := c.progs[string(raw)]; ok {
		return pi, nil
	}
	var w workloads.Workload
	switch {
	case spec.App != "":
		scale := spec.Scale
		if scale == 0 {
			scale = 1
		}
		w, err = workloads.Get(spec.App, scale)
	case spec.Synth != nil:
		w, err = workloads.Synthesize(*spec.Synth)
	default:
		err = fmt.Errorf("unsupported workload spec")
	}
	if err != nil {
		return progInfo{}, err
	}
	nest := w.Prog.Nest
	pi := progInfo{prog: w.Prog, valid: make([]bool, nest.BoxSize())}
	nest.ForEach(func(it []int64) bool {
		pi.valid[nest.IterToIndex(it)] = true
		pi.count++
		return true
	})
	c.progs[string(raw)] = pi
	return pi, nil
}

// partition checks that a served plan executes every iteration of its
// nest exactly once, on a client the topology has.
func (c *checker) partition(r request, raw json.RawMessage) error {
	var p mapping.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("undecodable plan: %v", err)
	}
	asg, err := p.Assignment()
	if err != nil {
		return err
	}
	tree, err := hierarchy.Parse(r.req.Topology)
	if err != nil {
		return err
	}
	if len(asg) != tree.NumClients() {
		return fmt.Errorf("plan for %d clients on a %d-client topology", len(asg), tree.NumClients())
	}
	pi, err := c.prog(r.req.Workload)
	if err != nil {
		return err
	}
	seen := make([]bool, len(pi.valid))
	var n int64
	mark := func(idx int64) error {
		if idx < 0 || idx >= int64(len(seen)) || !pi.valid[idx] {
			return fmt.Errorf("plan maps non-iteration index %d", idx)
		}
		if seen[idx] {
			return fmt.Errorf("plan maps iteration %d twice", idx)
		}
		seen[idx] = true
		n++
		return nil
	}
	for _, blocks := range p.Work {
		for _, b := range blocks {
			for _, run := range b.Runs {
				for i := run[0]; i < run[1]; i++ {
					if err := mark(i); err != nil {
						return err
					}
				}
			}
			for _, i := range b.Explicit {
				if err := mark(i); err != nil {
					return err
				}
			}
		}
	}
	if n != pi.count {
		return fmt.Errorf("plan maps %d of %d iterations", n, pi.count)
	}
	return nil
}

// planIONorm simulates every kept plan with iosim.Run and divides its I/O
// latency by the original (lexicographic) scheme's on the same workload and
// topology — the paper's Figure 11 ratio — and returns the geometric mean
// and the number of plans. The simulator must execute every iteration.
func (c *checker) planIONorm(reqs map[string]request, span func(name string) func()) (float64, int, error) {
	keys := make([]string, 0, len(c.kept))
	for k := range c.kept {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	base := make(map[string]float64)
	var logSum float64
	for _, k := range keys {
		r := reqs[k]
		var p mapping.Plan
		if err := json.Unmarshal(c.kept[k], &p); err != nil {
			return 0, 0, err
		}
		asg, err := p.Assignment()
		if err != nil {
			return 0, 0, err
		}
		tree, err := hierarchy.Parse(r.req.Topology)
		if err != nil {
			return 0, 0, err
		}
		pi, err := c.prog(r.req.Workload)
		if err != nil {
			return 0, 0, err
		}
		done := span("iosim.run")
		m, err := iosim.Run(tree, pi.prog, asg, iosim.DefaultParams())
		done()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: iosim: %w", k[:12], err)
		}
		if m.Iterations != pi.count || m.Truncated {
			return 0, 0, fmt.Errorf("%s: iosim executed %d of %d iterations", k[:12], m.Iterations, pi.count)
		}
		orig := r.req
		orig.Scheme = string(pipeline.Original)
		ok, err := server.PlanKey(orig)
		if err != nil {
			return 0, 0, err
		}
		b, have := base[ok.String()]
		if !have {
			res, err := pipeline.Map(context.Background(), pipeline.Original, pi.prog, pipeline.Config{Tree: tree})
			if err != nil {
				return 0, 0, err
			}
			oasg, err := mapping.PlanOf(res).Assignment()
			if err != nil {
				return 0, 0, err
			}
			done := span("iosim.run")
			om, err := iosim.Run(tree, pi.prog, oasg, iosim.DefaultParams())
			done()
			if err != nil {
				return 0, 0, err
			}
			b = om.IOLatencyMS()
			base[ok.String()] = b
		}
		if b <= 0 || m.IOLatencyMS() <= 0 {
			return 0, 0, fmt.Errorf("%s: zero simulated I/O latency", k[:12])
		}
		logSum += math.Log(m.IOLatencyMS() / b)
	}
	if len(keys) == 0 {
		return 0, 0, fmt.Errorf("no plans kept for plan_io_norm")
	}
	return math.Exp(logSum / float64(len(keys))), len(keys), nil
}
