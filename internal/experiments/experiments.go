// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5): per-application storage cache miss rates, I/O
// latencies and execution times under the original, intra-processor and
// inter-processor mappings, plus the sensitivity studies (topology, cache
// capacity, data chunk size) and the Section 5.4 enhancements (scheduling,
// α/β weights, dependences, multi-nest).
//
// Results are returned as plain structs so the cmd/experiments tool, the
// benchmark harness and EXPERIMENTS.md all report the same rows the paper
// plots.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Config is the platform configuration of one experiment — the scaled
// analogue of the paper's Table 1.
type Config struct {
	// Topology (w, x, y): client, I/O and storage node counts.
	Clients, IONodes, StorageNodes int
	// Per-node storage cache capacities in data chunks (client, I/O,
	// storage order — the paper's W, X, Y knob of Figure 13).
	CacheL1, CacheL2, CacheL3 int
	// Data chunk size in bytes (Figure 14 knob).
	ChunkBytes int64
	// Workload scale divisor (1 = evaluation size).
	Scale int
	// BalanceThreshold for the distribution algorithm (paper: 10%).
	BalanceThreshold float64
	// Alpha and Beta weigh the Figure 15 scheduler.
	Alpha, Beta float64
	// Platform timing model.
	Params iosim.Params
}

// DefaultConfig mirrors Table 1 at the documented 1:16 scale: 64 client
// nodes, 32 I/O nodes, 16 storage nodes, 4 KB chunks (standing for 64 KB),
// LRU everywhere. Per-node cache capacities (4, 8, 16 chunks for client,
// I/O and storage nodes) keep the per-client cache share constant at every
// level — the calibration that best preserves the paper's cache-pressure
// ratios at this scale (see DESIGN.md).
func DefaultConfig() Config {
	return Config{
		Clients:          64,
		IONodes:          32,
		StorageNodes:     16,
		CacheL1:          4,
		CacheL2:          8,
		CacheL3:          16,
		ChunkBytes:       workloads.DefaultChunkBytes,
		Scale:            1,
		BalanceThreshold: 0.10,
		Alpha:            0.5,
		Beta:             0.5,
		Params:           iosim.DefaultParams(),
	}
}

// Tree builds the storage cache hierarchy tree for the configuration.
func (c Config) Tree() *hierarchy.Tree {
	return hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: c.StorageNodes, CacheChunks: c.CacheL3, Label: "SN"},
		hierarchy.LayerSpec{Count: c.IONodes, CacheChunks: c.CacheL2, Label: "IO"},
		hierarchy.LayerSpec{Count: c.Clients, CacheChunks: c.CacheL1, Label: "CN"},
	)
}

func (c Config) mappingConfig(tree *hierarchy.Tree) pipeline.Config {
	cfg := pipeline.Config{Tree: tree}
	cfg.Options.BalanceThreshold = c.BalanceThreshold
	cfg.Schedule.Alpha = c.Alpha
	cfg.Schedule.Beta = c.Beta
	return cfg
}

// Run maps and simulates one workload under one scheme. The
// intra-processor baseline follows the paper's protocol of trying several
// tile sizes and keeping the best-performing one.
func (c Config) Run(w workloads.Workload, scheme pipeline.Scheme) (*iosim.Metrics, error) {
	m, _, err := c.RunDetailed(w, scheme)
	return m, err
}

// RunDetailed is Run, additionally returning the staged planner's
// per-stage timing breakdown for the mapping that produced the metrics.
func (c Config) RunDetailed(w workloads.Workload, scheme pipeline.Scheme) (*iosim.Metrics, []pipeline.StageTiming, error) {
	if c.ChunkBytes != w.Prog.Data.ChunkBytes {
		w = w.WithChunkBytes(c.ChunkBytes)
	}
	if scheme == pipeline.IntraProcessor {
		return c.runIntraBest(w)
	}
	tree := c.Tree()
	res, err := pipeline.Map(context.Background(), scheme, w.Prog, c.mappingConfig(tree))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s/%s: %w", w.Name, scheme, err)
	}
	m, err := iosim.Run(tree, w.Prog, res.Assignment, c.Params)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s/%s: %w", w.Name, scheme, err)
	}
	return m, res.Stages, nil
}

// runIntraBest evaluates the intra-processor candidate orders (heuristic
// tiles, a few uniform tile sizes, untiled) and returns the metrics of the
// best candidate by I/O latency — the paper's tile-size selection protocol.
// All candidates come from one pipeline run, so they share one breakdown.
func (c Config) runIntraBest(w workloads.Workload) (*iosim.Metrics, []pipeline.StageTiming, error) {
	tree := c.Tree()
	cands, err := pipeline.MapIntraCandidates(context.Background(), w.Prog, c.mappingConfig(tree), 8, 32)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s/intra: %w", w.Name, err)
	}
	var best *iosim.Metrics
	var stages []pipeline.StageTiming
	for _, res := range cands {
		m, err := iosim.Run(c.Tree(), w.Prog, res.Assignment, c.Params)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s/intra: %w", w.Name, err)
		}
		if best == nil || m.IOLatencyMS() < best.IOLatencyMS() {
			best, stages = m, res.Stages
		}
	}
	return best, stages, nil
}

// Apps loads the eight applications at the configured scale.
func (c Config) Apps() ([]workloads.Workload, error) { return workloads.All(c.Scale) }

// AppMetrics bundles one application's metrics under one scheme.
type AppMetrics struct {
	App     string
	Scheme  pipeline.Scheme
	Metrics *iosim.Metrics
}

// RunAll maps and simulates every application under the given schemes.
func (c Config) RunAll(schemes ...pipeline.Scheme) ([]AppMetrics, error) {
	apps, err := c.Apps()
	if err != nil {
		return nil, err
	}
	var out []AppMetrics
	for _, w := range apps {
		for _, s := range schemes {
			m, err := c.Run(w, s)
			if err != nil {
				return nil, err
			}
			out = append(out, AppMetrics{App: w.Name, Scheme: s, Metrics: m})
		}
	}
	return out, nil
}

// ratio returns v/base, guarding against a zero base.
func ratio(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// GeoMeanImprovement converts normalized values (fractions of the original)
// to the mean improvement percentage, as the paper reports.
func GeoMeanImprovement(normalized []float64) float64 {
	if len(normalized) == 0 {
		return 0
	}
	var sum float64
	for _, v := range normalized {
		sum += v
	}
	return (1 - sum/float64(len(normalized))) * 100
}
