// Package faults is a dependency-free, seeded-deterministic fault
// injection harness for the serving stack. An Injector holds a set of
// rules, each binding a fault kind (latency spike, injected error, leader
// crash) to a named site with a firing probability; call sites ask the
// injector for a Decision at well-known points (pipeline stage starts, the
// plan-cache leader's computation, request admission).
//
// Determinism: whether the n-th evaluation at a site fires is a pure
// function of (seed, site, kind, n) — a splitmix64-style hash drives the
// probability draw, not a shared RNG — so a fixed seed reproduces the same
// per-site fault sequence regardless of goroutine interleaving across
// sites. That is what makes chaos runs assertable: the same seed and the
// same per-site request counts produce the same injected faults.
//
// The package has no repository dependencies and nil receivers are inert:
// a nil *Injector evaluates to the zero Decision, so call sites need no
// nil checks and the production fast path is a single pointer test.
package faults

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sleep applies an injected delay, honoring ctx: it returns ctx.Err() if
// the context ends first, nil otherwise. Zero and negative delays return
// immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kind names a fault class.
type Kind string

const (
	// KindLatency delays the call site by the rule's Delay.
	KindLatency Kind = "latency"
	// KindError makes the call site fail with an *InjectedError.
	KindError Kind = "error"
	// KindCrash simulates a crash of the executing actor: the plan-cache
	// leader abandons its computation mid-flight, and at any other site the
	// caller fails as it does on an injected error.
	KindCrash Kind = "crash"
)

// Rule arms one fault at one site.
type Rule struct {
	Kind Kind   `json:"kind"`
	Site string `json:"site"`
	// Prob is the per-evaluation firing probability in [0, 1].
	Prob float64 `json:"prob"`
	// Delay is the injected latency for KindLatency rules. It marshals as
	// a Go duration string ("50ms").
	Delay Duration `json:"delay,omitempty"`
}

func (r Rule) validate() error {
	switch r.Kind {
	case KindLatency, KindError, KindCrash:
	default:
		return fmt.Errorf("faults: unknown kind %q (want latency, error or crash)", r.Kind)
	}
	if r.Site == "" {
		return fmt.Errorf("faults: rule with empty site")
	}
	if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
		return fmt.Errorf("faults: site %s: probability %g outside [0, 1]", r.Site, r.Prob)
	}
	if r.Kind == KindLatency && r.Delay <= 0 {
		return fmt.Errorf("faults: site %s: latency rule needs a positive delay", r.Site)
	}
	if r.Kind != KindLatency && r.Delay != 0 {
		return fmt.Errorf("faults: site %s: delay is only valid on latency rules", r.Site)
	}
	return nil
}

// Duration is time.Duration with human-readable JSON ("50ms").
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("faults: bad duration %s", b)
	}
	*d = Duration(ns)
	return nil
}

// InjectedError marks a failure as deliberately injected, so servers can
// classify it apart from real errors (and chaos clients can treat the
// resulting 503s as expected).
type InjectedError struct {
	Site string
}

func (e *InjectedError) Error() string { return "injected fault at " + e.Site }

// Decision is the outcome of evaluating every armed rule at a site for one
// call: the fired effects, combined.
type Decision struct {
	// Delay is the injected latency to apply before proceeding (0 = none).
	Delay time.Duration
	// Err is the injected failure to return (nil = none).
	Err error
	// Crash directs the executing actor to abandon its work mid-flight.
	Crash bool
}

// Fired reports whether any rule fired.
func (d Decision) Fired() bool { return d.Delay > 0 || d.Err != nil || d.Crash }

// Injector evaluates armed rules. Safe for concurrent use.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	rules []*ruleState
}

type ruleState struct {
	Rule
	hash  uint64 // precomputed mix of seed, site and kind
	calls uint64
	fired uint64
}

// New returns an injector with no armed rules.
func New(seed uint64) *Injector { return &Injector{seed: seed} }

// Seed returns the injector's seed.
func (i *Injector) Seed() uint64 { return i.seed }

// SetRules replaces the armed rule set, resetting per-rule counters.
func (i *Injector) SetRules(rules []Rule) error {
	states := make([]*ruleState, 0, len(rules))
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return err
		}
		states = append(states, &ruleState{
			Rule: r,
			hash: splitmix64(i.seed ^ fnv64(string(r.Kind)+"\x00"+r.Site)),
		})
	}
	i.mu.Lock()
	i.rules = states
	i.mu.Unlock()
	return nil
}

// Evaluate draws every rule armed at site once and returns the combined
// decision. Each rule's draw is deterministic in (seed, site, kind, call
// number). A nil injector returns the zero decision.
func (i *Injector) Evaluate(site string) Decision {
	if i == nil {
		return Decision{}
	}
	var d Decision
	i.mu.Lock()
	for _, rs := range i.rules {
		if rs.Site != site {
			continue
		}
		rs.calls++
		u := float64(splitmix64(rs.hash+rs.calls)>>11) / float64(1<<53)
		if u >= rs.Prob {
			continue
		}
		rs.fired++
		switch rs.Kind {
		case KindLatency:
			d.Delay += time.Duration(rs.Delay)
		case KindError:
			d.Err = &InjectedError{Site: site}
		case KindCrash:
			d.Crash = true
		}
	}
	i.mu.Unlock()
	return d
}

// SiteStatus is the observable state of one armed rule.
type SiteStatus struct {
	Rule
	// Calls counts evaluations of the rule; Fired counts the ones that
	// injected its fault.
	Calls uint64 `json:"calls"`
	Fired uint64 `json:"fired"`
}

// Status snapshots every armed rule with its counters, ordered by site
// then kind for stable output.
func (i *Injector) Status() []SiteStatus {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	out := make([]SiteStatus, len(i.rules))
	for j, rs := range i.rules {
		out[j] = SiteStatus{Rule: rs.Rule, Calls: rs.calls, Fired: rs.fired}
	}
	i.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Site != out[b].Site {
			return out[a].Site < out[b].Site
		}
		return out[a].Kind < out[b].Kind
	})
	return out
}

// ParseSpec parses the -faults flag syntax: semicolon-separated rules of
// the form kind:site:prob[:delay], e.g.
//
//	latency:pipeline/tags:0.2:50ms;error:pipeline/cluster:0.1;crash:plancache/leader:0.05
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("faults: bad rule %q (want kind:site:prob[:delay])", part)
		}
		prob, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad probability in %q: %w", part, err)
		}
		r := Rule{Kind: Kind(fields[0]), Site: fields[1], Prob: prob}
		if len(fields) == 4 {
			d, err := time.ParseDuration(fields[3])
			if err != nil {
				return nil, fmt.Errorf("faults: bad delay in %q: %w", part, err)
			}
			r.Delay = Duration(d)
		}
		if err := r.validate(); err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// splitmix64 is the finalizing mix of the SplitMix64 generator: a cheap,
// high-quality bijection on uint64 used here to derive the per-call
// uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is the FNV-1a hash of s.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
