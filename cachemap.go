// Package cachemap is a storage-cache-hierarchy-aware computation mapping
// library: a reproduction of "Computation Mapping for Multi-Level Storage
// Cache Hierarchies" (Kandemir, Muralidhara, Karakoy, Son — HPDC 2010).
//
// Given an I/O-intensive loop nest over disk-resident arrays and a
// description of the platform's storage cache hierarchy (client caches, I/O
// node caches, storage node caches, …), the library assigns loop iterations
// to client nodes so that iterations sharing disk-resident data chunks land
// on clients that share storage caches — converting destructive shared-cache
// interference into constructive sharing. It bundles:
//
//   - a polyhedral-style loop nest IR with affine references and data
//     dependence analysis (package internal/polyhedral);
//   - data chunking of the disk-resident data space (internal/chunking);
//   - iteration tags and iteration chunks (internal/tags);
//   - the paper's hierarchical distribution and scheduling algorithms
//     (internal/core);
//   - a staged planner pipeline every mapping entry point routes through:
//     context cancellation, deterministic parallel stages, per-stage
//     timings (internal/pipeline), with baseline schemes backed by a loop
//     permutation + tiling locality optimizer (internal/locality) and the
//     versioned plan wire format (internal/mapping);
//   - an event-driven multi-level storage cache / parallel I/O simulator
//     (internal/iosim, internal/cache, internal/disk, internal/netsim);
//   - the paper's eight application models and every evaluation experiment
//     (internal/workloads, internal/experiments).
//
// Quick start:
//
//	tree := cachemap.NewHierarchy(4, 2, 1, 64)       // 4 clients, 2 I/O, 1 storage, 64-chunk caches
//	prog := cachemap.Program{Nest: nest, Refs: refs, Data: data}
//	res, _ := cachemap.Map(cachemap.InterProcessor, prog, cachemap.Config{Tree: tree})
//	metrics, _ := cachemap.Simulate(tree, prog, res.Assignment, cachemap.DefaultSimParams())
//
// See examples/ for runnable programs and cmd/experiments for the paper's
// full evaluation.
package cachemap

import (
	"context"

	"repro/internal/chunking"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/pipeline"
	"repro/internal/polyhedral"
	"repro/internal/tags"
	"repro/internal/workloads"
)

// Loop nest IR.
type (
	// Nest is an n-deep loop nest with inclusive bounds and optional
	// affine guards.
	Nest = polyhedral.Nest
	// Ref is an array reference R(i⃗) = Q·i⃗ + q⃗ (with optional modular
	// subscripts).
	Ref = polyhedral.Ref
	// RefExpr is one subscript expression of a reference.
	RefExpr = polyhedral.RefExpr
	// Dependence is a data dependence with a (possibly partial) distance
	// vector.
	Dependence = polyhedral.Dependence
	// Order is a loop permutation plus rectangular tiling execution order.
	Order = polyhedral.Order
)

// NewNest builds a rectangular loop nest with the given inclusive bounds.
func NewNest(name string, lower, upper []int64) *Nest {
	return polyhedral.NewNest(name, lower, upper)
}

// AffineRef builds a reference from an access matrix and offset vector.
func AffineRef(array int, q [][]int64, offset []int64, kind AccessKind) Ref {
	return polyhedral.AffineRef(array, q, offset, kind)
}

// SimpleRef builds a one-iterator-per-subscript reference.
func SimpleRef(array, depth int, loops []int, offsets []int64, kind AccessKind) Ref {
	return polyhedral.SimpleRef(array, depth, loops, offsets, kind)
}

// IndirectRef builds an irregular reference A[table[linear(i⃗)]] — the
// indirection-based access pattern of the paper's future-work extension.
func IndirectRef(array int, coeffs []int64, offset int64, table []int64, kind AccessKind) Ref {
	return polyhedral.IndirectRef(array, coeffs, offset, table, kind)
}

// AccessKind distinguishes reads from writes.
type AccessKind = polyhedral.AccessKind

// Read and Write are the two access kinds.
const (
	Read  = polyhedral.Read
	Write = polyhedral.Write
)

// AnalyzeDependences computes the data dependences among the references of
// a nest.
func AnalyzeDependences(nest *Nest, refs []Ref) []Dependence {
	return polyhedral.Analyze(nest, refs)
}

// Data space.
type (
	// Array is one disk-resident array (dims, element size).
	Array = chunking.Array
	// DataSpace is the combined data space partitioned into data chunks.
	DataSpace = chunking.DataSpace
)

// NewDataSpace partitions arrays into data chunks of chunkBytes bytes.
func NewDataSpace(chunkBytes int64, arrays ...Array) *DataSpace {
	return chunking.NewDataSpace(chunkBytes, arrays...)
}

// Hierarchy.
type (
	// Hierarchy is a storage cache hierarchy tree.
	Hierarchy = hierarchy.Tree
	// HierarchyNode is one cache in the tree.
	HierarchyNode = hierarchy.Node
	// LayerSpec describes one layer of a layered topology.
	LayerSpec = hierarchy.LayerSpec
)

// NewHierarchy builds the paper's layered client/I/O/storage topology:
// clients client nodes, ioNodes I/O nodes, storageNodes storage nodes,
// every node carrying a cache of cacheChunks data chunks.
func NewHierarchy(clients, ioNodes, storageNodes, cacheChunks int) *Hierarchy {
	return hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: storageNodes, CacheChunks: cacheChunks, Label: "SN"},
		hierarchy.LayerSpec{Count: ioNodes, CacheChunks: cacheChunks, Label: "IO"},
		hierarchy.LayerSpec{Count: clients, CacheChunks: cacheChunks, Label: "CN"},
	)
}

// NewLayeredHierarchy builds an arbitrary layered topology, top layer
// first; a cache-less dummy root is added when the top layer has several
// nodes.
func NewLayeredHierarchy(layers ...LayerSpec) *Hierarchy {
	return hierarchy.NewLayered(layers...)
}

// BuildHierarchy finalizes a hand-constructed (possibly non-uniform) tree.
func BuildHierarchy(root *HierarchyNode) *Hierarchy { return hierarchy.Build(root) }

// ParseHierarchy builds a layered hierarchy from a compact spec such as
// "16/32/64@16,8,4" (node counts top-down, then per-layer cache capacities
// in chunks).
func ParseHierarchy(spec string) (*Hierarchy, error) { return hierarchy.Parse(spec) }

// Iteration chunks and the core algorithms.
type (
	// IterationChunk is a set of iterations sharing one data chunk tag.
	IterationChunk = tags.IterationChunk
	// DistributeOptions tunes the Figure 5 distribution algorithm.
	DistributeOptions = core.Options
	// ScheduleOptions weighs the Figure 15 scheduling algorithm.
	ScheduleOptions = core.ScheduleOptions
)

// ComputeIterationChunks groups a nest's iterations by their data chunk
// tags (Section 4.2 of the paper).
func ComputeIterationChunks(nest *Nest, refs []Ref, data *DataSpace) []*IterationChunk {
	return tags.Compute(nest, refs, data)
}

// Distribute runs the paper's hierarchical, cache-topology-aware iteration
// distribution (Figure 5) and returns one chunk list per client. It routes
// through the staged planner pipeline, so a failure names its stage (see
// FailedStage) as in Map.
func Distribute(chunks []*IterationChunk, tree *Hierarchy, opts DistributeOptions) ([][]*IterationChunk, error) {
	return pipeline.Distribute(context.Background(), chunks, tree, opts)
}

// Schedule reorders each client's chunks for chunk-level reuse
// (Figure 15), routed through the staged planner pipeline.
func Schedule(assign [][]*IterationChunk, tree *Hierarchy, opts ScheduleOptions) ([][]*IterationChunk, error) {
	return pipeline.Schedule(context.Background(), assign, tree, opts)
}

// DefaultDistributeOptions returns the paper's settings (10% balance
// threshold).
func DefaultDistributeOptions() DistributeOptions { return core.DefaultOptions() }

// DefaultScheduleOptions returns the paper's equal α/β weighting.
func DefaultScheduleOptions() ScheduleOptions { return core.DefaultScheduleOptions() }

// Mapping schemes.
type (
	// Scheme selects a mapping strategy.
	Scheme = pipeline.Scheme
	// Config parameterizes Map.
	Config = pipeline.Config
	// MapResult is a computed mapping.
	MapResult = pipeline.Result
	// DepMode selects dependence handling.
	DepMode = pipeline.DepMode
	// StageTiming is one entry of a mapping's per-stage cost breakdown.
	StageTiming = pipeline.StageTiming
)

// The four mapping schemes of the paper's evaluation.
const (
	// Original divides the lexicographic iteration order into contiguous
	// blocks.
	Original = pipeline.Original
	// IntraProcessor applies single-processor locality optimizations
	// (permutation + tiling) before block division.
	IntraProcessor = pipeline.IntraProcessor
	// InterProcessor is the paper's cache-hierarchy-aware distribution.
	InterProcessor = pipeline.InterProcessor
	// InterProcessorSched adds the Figure 15 local scheduling enhancement.
	InterProcessorSched = pipeline.InterProcessorSched
)

// Dependence-handling modes (Section 5.4).
const (
	DepIgnore = pipeline.DepIgnore
	DepMerge  = pipeline.DepMerge
	DepSync   = pipeline.DepSync
)

// Schemes lists all mapping schemes in evaluation order.
func Schemes() []Scheme { return pipeline.Schemes() }

// Map computes an iteration-to-processor mapping through the staged
// planner pipeline; MapResult.Stages carries the per-stage cost breakdown.
func Map(scheme Scheme, prog Program, cfg Config) (*MapResult, error) {
	return pipeline.Map(context.Background(), scheme, prog, cfg)
}

// MapContext is Map honoring ctx: the pipeline checks it between stages
// and inside its long loops, so cancellation stops the computation within
// one check interval.
func MapContext(ctx context.Context, scheme Scheme, prog Program, cfg Config) (*MapResult, error) {
	return pipeline.Map(ctx, scheme, prog, cfg)
}

// FailedStage extracts the name of the pipeline stage a Map error
// originated in, or "" if the error carries no stage identity.
func FailedStage(err error) string { return pipeline.FailedStage(err) }

// MapMulti distributes several nests sharing one data space together
// (Section 5.4's multi-nest extension).
func MapMulti(scheme Scheme, progs []Program, cfg Config) ([]Assignment, error) {
	return pipeline.MapMulti(context.Background(), scheme, progs, cfg)
}

// MapMultiContext is MapMulti honoring ctx.
func MapMultiContext(ctx context.Context, scheme Scheme, progs []Program, cfg Config) ([]Assignment, error) {
	return pipeline.MapMulti(ctx, scheme, progs, cfg)
}

// Simulation.
type (
	// Program binds a nest, its references and the chunked data space.
	Program = iosim.Program
	// Assignment is the per-client ordered work list.
	Assignment = iosim.Assignment
	// Block is one scheduled unit of work.
	Block = iosim.Block
	// SimParams is the platform timing model.
	SimParams = iosim.Params
	// Metrics aggregates one simulation run.
	Metrics = iosim.Metrics
	// WritePolicy selects write-miss behaviour.
	WritePolicy = iosim.WritePolicy
)

// DefaultSimParams returns a timing model calibrated to the paper's
// platform (10GigE links, 10k RPM striped disks, LRU caches).
func DefaultSimParams() SimParams { return iosim.DefaultParams() }

// Simulate executes an assignment on the platform and reports per-level
// miss rates, I/O latency and execution time.
func Simulate(tree *Hierarchy, prog Program, asg Assignment, params SimParams) (*Metrics, error) {
	return iosim.Run(tree, prog, asg, params)
}

// SimulateSequence executes several nests back to back with persistent
// caches (multi-nest workloads).
func SimulateSequence(tree *Hierarchy, progs []Program, asgs []Assignment, params SimParams) (*Metrics, error) {
	return iosim.RunSequence(tree, progs, asgs, params)
}

// MapAndSimulate is the one-call convenience path: map prog under scheme,
// then simulate it.
func MapAndSimulate(scheme Scheme, prog Program, tree *Hierarchy, params SimParams) (*Metrics, error) {
	res, err := pipeline.Map(context.Background(), scheme, prog, pipeline.Config{Tree: tree})
	if err != nil {
		return nil, err
	}
	return iosim.Run(tree, prog, res.Assignment, params)
}

// Workload models.
type (
	// Workload is one application model (name, description, program).
	Workload = workloads.Workload
	// SynthSpec parameterizes the synthetic workload generator.
	SynthSpec = workloads.SynthSpec
	// StreamSpec is one read stream of a synthetic workload.
	StreamSpec = workloads.StreamSpec
	// StencilSpec parameterizes a synthetic 2-D stencil workload.
	StencilSpec = workloads.StencilSpec
)

// WorkloadNames lists the paper's eight application models.
func WorkloadNames() []string { return workloads.Names() }

// GetWorkload builds one of the paper's application models at the given
// scale (1 = evaluation size; larger divides every extent).
func GetWorkload(name string, scale int) (Workload, error) { return workloads.Get(name, scale) }

// IrregularWorkload builds the unstructured-mesh (indirection) workload of
// the future-work extension, deterministically from the seed.
func IrregularWorkload(scale int, seed int64) Workload { return workloads.Irregular(scale, seed) }

// Synthesize builds a workload from a SynthSpec — the parameterized
// generator covering the axes along which the paper's applications differ
// (passes, streams, drift, hot tables, output style).
func Synthesize(spec SynthSpec) (Workload, error) { return workloads.Synthesize(spec) }

// SynthesizeStencil builds a 2-D stencil workload from a StencilSpec.
func SynthesizeStencil(spec StencilSpec) (Workload, error) {
	return workloads.SynthesizeStencil(spec)
}
