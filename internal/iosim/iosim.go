// Package iosim is the event-driven execution simulator that stands in for
// the paper's physical MPI-IO/PVFS platform. Client nodes execute their
// assigned loop iterations in virtual time; every array reference becomes a
// data-chunk access that climbs the client's path through the storage cache
// hierarchy (L1 at the client, L2 at its I/O node, L3 at its storage node,
// then the striped disk array). Shared caches see the accesses of all their
// clients interleaved in global virtual-time order, which is exactly the
// mechanism behind the paper's constructive/destructive sharing effects.
//
// The simulator reports the paper's three metrics: per-level cache miss
// rates, I/O latency (time spent performing I/O, including storage cache
// accesses), and overall execution time.
package iosim

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/chunking"
	"repro/internal/disk"
	"repro/internal/hierarchy"
	"repro/internal/itset"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/polyhedral"
)

// Params holds the platform timing model.
type Params struct {
	Policy           cache.PolicyKind // storage cache replacement policy (paper: LRU)
	L1HitMS          float64          // local storage-cache hit service time
	CacheServiceMS   float64          // remote storage-cache hit service time (excl. network)
	Fabric           *netsim.Fabric   // per-level link model; nil = DefaultFabric
	Disk             disk.Params      // per-disk service model
	NumDisks         int              // 0 = derive from the tree (one per storage node)
	ComputePerIterMS float64          // CPU time per loop iteration
	Writes           WritePolicy      // how write misses are handled
	// Exclusive enables exclusive (DEMOTE-style) caching between levels:
	// a hit at a shared cache promotes the chunk to the client cache and
	// removes it from the provider, and evictions demote into the parent,
	// so each chunk occupies at most one level of a path (Wong & Wilkes,
	// USENIX ATC 2002 — cited by the paper's related work).
	Exclusive bool
	// PrefetchDepth, when positive, makes every demand disk read also
	// stage the next PrefetchDepth sequential chunks into the topmost
	// cache of the requesting path (server-side sequential readahead à la
	// AMP/TaP from the paper's related work). Prefetches occupy the disks
	// asynchronously.
	PrefetchDepth int
	// TraceSink, when non-nil, receives every chunk access (client, chunk,
	// write flag, paper-style serving level with 0 = disk, virtual time).
	// Tracing does not perturb the simulation.
	TraceSink func(client, chunk int, write bool, hitLevel int, timeMS float64)
	// Cooperative enables cooperative client caching (Dahlin et al., OSDI
	// 1994 — cited in the paper's introduction): on a local miss, the
	// sibling client caches under the same I/O node are probed before the
	// shared caches, at PeerHitMS per hit. Peer probes do not disturb the
	// sibling's LRU state (N-chance-style forwarding without recency
	// updates).
	Cooperative bool
	// PeerHitMS is the cost of a cooperative peer-cache hit (defaults to
	// the L2 round trip when zero).
	PeerHitMS float64
	// MaxIterations, when positive, hard-caps the total iterations the
	// event loop executes across all programs of a run; reaching the cap
	// stops the simulation and marks Metrics.Truncated. It bounds the cost
	// of shadow simulations (plan-quality sampling) that only need the
	// leading per-level miss-rate signal, not a complete run.
	MaxIterations int64
}

// WritePolicy selects how write misses behave.
type WritePolicy uint8

const (
	// WriteAllocateNoFetch (default) allocates the chunk dirty in the
	// client cache without reading it from disk — client-side write
	// caching of whole chunks, as PVFS-style clients do. Dirty evictions
	// later demote/write back.
	WriteAllocateNoFetch WritePolicy = iota
	// WriteAllocateFetch reads the chunk through the hierarchy on a write
	// miss before dirtying it (read-modify-write of partial chunks).
	WriteAllocateFetch
	// WriteThrough sends write misses straight to disk without caching.
	WriteThrough
)

// DefaultParams returns a timing model loosely calibrated to the paper's
// platform: memory-speed L1 hits, 10GigE hops, 10k RPM disks.
func DefaultParams() Params {
	return Params{
		Policy:           cache.LRU,
		L1HitMS:          0.01,
		CacheServiceMS:   0.02,
		Disk:             disk.DefaultParams(),
		ComputePerIterMS: 1.0,
		Writes:           WriteAllocateNoFetch,
	}
}

// Program binds a loop nest, its array references and the chunked data
// space — everything needed to turn an iteration into chunk accesses.
type Program struct {
	Nest *polyhedral.Nest
	Refs []polyhedral.Ref
	Data *chunking.DataSpace
}

// Validate checks that the program is internally consistent.
func (p Program) Validate() error {
	if p.Nest == nil || p.Data == nil {
		return fmt.Errorf("iosim: nil nest or data space")
	}
	if len(p.Refs) == 0 {
		return fmt.Errorf("iosim: program has no references")
	}
	for i, r := range p.Refs {
		if r.Array < 0 || r.Array >= len(p.Data.Arrays) {
			return fmt.Errorf("iosim: ref %d targets array %d of %d", i, r.Array, len(p.Data.Arrays))
		}
		if len(r.Exprs) != len(p.Data.Arrays[r.Array].Dims) {
			return fmt.Errorf("iosim: ref %d has %d subscripts for %d-d array",
				i, len(r.Exprs), len(p.Data.Arrays[r.Array].Dims))
		}
		for _, e := range r.Exprs {
			if len(e.Coeffs) != p.Nest.Depth() {
				return fmt.Errorf("iosim: ref %d coefficient arity %d vs depth %d",
					i, len(e.Coeffs), p.Nest.Depth())
			}
		}
	}
	return nil
}

// Block is one scheduled unit of work for a client: either a run-length
// iteration set (enumerated lexicographically — how iteration chunks
// execute) or an explicit sequence of box indices (how transformed orders
// execute). Exactly one of Set/Explicit should be populated.
type Block struct {
	Set      itset.Set
	Explicit []int64
}

// Count returns the number of iterations in the block.
func (b Block) Count() int64 {
	if b.Explicit != nil {
		return int64(len(b.Explicit))
	}
	return b.Set.Count()
}

// Assignment is the per-client ordered work list produced by a mapping
// scheme: Assignment[c] is executed by client c front to back.
type Assignment [][]Block

// TotalIterations sums the iteration counts over all clients.
func (a Assignment) TotalIterations() int64 {
	var total int64
	for _, blocks := range a {
		for _, b := range blocks {
			total += b.Count()
		}
	}
	return total
}

// Metrics aggregates one simulation run.
type Metrics struct {
	// LevelStats[l] aggregates the caches at tree level l (cache-bearing
	// nodes only).
	LevelStats map[int]cache.Stats
	// Height is the tree height; paper cache number Lk = Height − level + 1.
	Height int
	// Per-client totals, indexed by client number.
	ClientIOMS   []float64
	ClientExecMS []float64
	// Disk activity.
	DiskReads      int64
	DiskWritebacks int64
	DiskBusyMS     float64
	Prefetches     int64
	// PeerHits counts cooperative sibling-cache hits (Cooperative mode).
	PeerHits int64
	// Iterations executed.
	Iterations int64
	// Truncated marks a run stopped early by Params.MaxIterations; the
	// aggregates above then cover only the executed prefix.
	Truncated bool
}

// MissRateL returns the aggregate miss rate of paper-level Lk
// (L1 = client caches, L2 = one level up, …). Returns 0 for absent levels.
func (m *Metrics) MissRateL(k int) float64 {
	level := m.Height - k + 1
	return m.LevelStats[level].MissRate()
}

// StatsL returns the aggregate stats of paper-level Lk.
func (m *Metrics) StatsL(k int) cache.Stats {
	return m.LevelStats[m.Height-k+1]
}

// IOLatencyMS returns the application I/O latency: the maximum per-client
// time spent performing I/O (including storage cache accesses), matching
// the paper's metric.
func (m *Metrics) IOLatencyMS() float64 {
	var v float64
	for _, x := range m.ClientIOMS {
		if x > v {
			v = x
		}
	}
	return v
}

// ExecTimeMS returns the parallel execution time: the maximum client
// virtual finish time.
func (m *Metrics) ExecTimeMS() float64 {
	var v float64
	for _, x := range m.ClientExecMS {
		if x > v {
			v = x
		}
	}
	return v
}

// Imbalance returns (max − min)/mean of per-client finish times — the load
// imbalance the distribution algorithm's balance threshold controls.
func (m *Metrics) Imbalance() float64 {
	if len(m.ClientExecMS) == 0 {
		return 0
	}
	lo, hi, sum := m.ClientExecMS[0], m.ClientExecMS[0], 0.0
	for _, x := range m.ClientExecMS {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		sum += x
	}
	mean := sum / float64(len(m.ClientExecMS))
	if mean == 0 {
		return 0
	}
	return (hi - lo) / mean
}

// client is the simulator state of one compute node.
type client struct {
	id     int
	time   float64
	ioMS   float64
	blocks []Block

	// cursor state
	bi   int         // current block
	runs []itset.Run // runs of current Set block
	ri   int         // current run
	cur  int64       // next index within current run
	ei   int         // next position within current Explicit block
	done bool

	iterBuf []int64
	subsBuf []int64
}

// next advances the cursor and returns the next box index.
func (c *client) next() (int64, bool) {
	for {
		if c.bi >= len(c.blocks) {
			c.done = true
			return 0, false
		}
		b := &c.blocks[c.bi]
		if b.Explicit != nil {
			if c.ei < len(b.Explicit) {
				v := b.Explicit[c.ei]
				c.ei++
				return v, true
			}
			c.bi++
			c.ei = 0
			c.runs = nil
			continue
		}
		if c.runs == nil {
			c.runs = b.Set.Runs()
			c.ri = 0
			if len(c.runs) > 0 {
				c.cur = c.runs[0].Start
			}
		}
		for c.ri < len(c.runs) {
			r := c.runs[c.ri]
			if c.cur < r.End {
				v := c.cur
				c.cur++
				return v, true
			}
			c.ri++
			if c.ri < len(c.runs) {
				c.cur = c.runs[c.ri].Start
			}
		}
		c.bi++
		c.runs = nil
		c.ei = 0
	}
}

// sim holds one run's mutable state.
type sim struct {
	tree       *hierarchy.Tree
	prog       Program
	params     Params
	fabric     *netsim.Fabric
	caches     []cache.Cache // by node ID
	disks      *disk.Array
	clients    []*client
	paths      [][]*hierarchy.Node // per client: leaf → root
	heap       []*client           // min-heap on (time, id)
	iters      int64
	truncated  bool
	prefetches int64
	peerHits   int64
}

// Run executes the assignment on the tree under the given parameters.
func Run(tree *hierarchy.Tree, prog Program, asg Assignment, params Params) (*Metrics, error) {
	return RunSequenceCtx(context.Background(), tree, []Program{prog}, []Assignment{asg}, params)
}

// RunCtx is Run with cooperative cancellation: the event loop checks ctx
// every ctxCheckInterval steps and returns ctx.Err() when it is canceled.
func RunCtx(ctx context.Context, tree *hierarchy.Tree, prog Program, asg Assignment, params Params) (*Metrics, error) {
	return RunSequenceCtx(ctx, tree, []Program{prog}, []Assignment{asg}, params)
}

// RunSequence executes several programs (loop nests) back to back on the
// same platform: storage caches and disk state persist across nests (so
// inter-nest data reuse is visible), and a barrier separates consecutive
// nests, as between the phases of an MPI application. progs[i] runs under
// asgs[i]. All programs must share one data space.
func RunSequence(tree *hierarchy.Tree, progs []Program, asgs []Assignment, params Params) (*Metrics, error) {
	return RunSequenceCtx(context.Background(), tree, progs, asgs, params)
}

// RunSequenceCtx is RunSequence with cooperative cancellation (see RunCtx).
// Under a traced context the whole run is recorded as an "iosim.run" span.
func RunSequenceCtx(ctx context.Context, tree *hierarchy.Tree, progs []Program, asgs []Assignment, params Params) (*Metrics, error) {
	if start := time.Now(); obs.SpanFromContext(ctx) != nil {
		defer func() {
			obs.Record(ctx, "iosim.run", start, time.Since(start),
				obs.String("programs", strconv.Itoa(len(progs))))
		}()
	}
	if tree == nil {
		return nil, fmt.Errorf("iosim: nil tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if len(progs) == 0 || len(progs) != len(asgs) {
		return nil, fmt.Errorf("iosim: %d programs with %d assignments", len(progs), len(asgs))
	}
	for i, prog := range progs {
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("iosim: program %d: %w", i, err)
		}
		if prog.Data != progs[0].Data {
			return nil, fmt.Errorf("iosim: program %d uses a different data space", i)
		}
		if len(asgs[i]) != tree.NumClients() {
			return nil, fmt.Errorf("iosim: assignment %d for %d clients on a %d-client tree",
				i, len(asgs[i]), tree.NumClients())
		}
	}
	s := &sim{tree: tree, params: params}
	s.fabric = params.Fabric
	if s.fabric == nil {
		s.fabric = netsim.DefaultFabric(tree.Height())
	}
	if s.fabric.Height() < tree.Height() {
		return nil, fmt.Errorf("iosim: fabric height %d < tree height %d", s.fabric.Height(), tree.Height())
	}
	nodes := tree.Nodes()
	s.caches = make([]cache.Cache, len(nodes))
	for _, n := range nodes {
		s.caches[n.ID] = cache.New(params.Policy, n.CacheChunks)
	}
	nDisks := params.NumDisks
	if nDisks == 0 {
		nDisks = deriveDisks(tree)
	}
	s.disks = disk.NewArray(params.Disk, nDisks, progs[0].Data.ChunkBytes)
	s.clients = make([]*client, tree.NumClients())
	s.paths = make([][]*hierarchy.Node, tree.NumClients())
	for i := range s.clients {
		s.clients[i] = &client{id: i}
		s.paths[i] = tree.PathToRoot(i)
	}
	for pi, prog := range progs {
		s.prog = prog
		depth := prog.Nest.Depth()
		maxSubs := 0
		for _, r := range prog.Refs {
			if len(r.Exprs) > maxSubs {
				maxSubs = len(r.Exprs)
			}
		}
		// Barrier: every client starts the nest at the slowest client's
		// finish time of the previous nest.
		if pi > 0 {
			var barrier float64
			for _, c := range s.clients {
				if c.time > barrier {
					barrier = c.time
				}
			}
			for _, c := range s.clients {
				c.time = barrier
			}
		}
		for i, c := range s.clients {
			c.blocks = asgs[pi][i]
			c.bi, c.ri, c.ei, c.cur = 0, 0, 0, 0
			c.runs = nil
			c.done = false
			c.iterBuf = make([]int64, depth)
			c.subsBuf = make([]int64, maxSubs)
		}
		if err := s.run(ctx); err != nil {
			return nil, err
		}
	}
	return s.metrics(), nil
}

// deriveDisks counts the storage nodes: the root if it carries a cache,
// otherwise the root's children (dummy-root layered trees).
func deriveDisks(tree *hierarchy.Tree) int {
	if tree.Root.CacheChunks > 0 || len(tree.Root.Children) == 0 {
		return 1
	}
	return len(tree.Root.Children)
}

// ctxCheckInterval is how many event-loop steps run between cooperative
// cancellation checks.
const ctxCheckInterval = 1024

func (s *sim) run(ctx context.Context) error {
	for _, c := range s.clients {
		s.heapPush(c)
	}
	var since int
	for len(s.heap) > 0 {
		if s.params.MaxIterations > 0 && s.iters >= s.params.MaxIterations {
			s.truncated = true
			s.heap = s.heap[:0]
			return nil
		}
		if since++; since >= ctxCheckInterval {
			since = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := s.heapPop()
		if !s.stepClient(c) {
			continue // client finished; do not reinsert
		}
		s.heapPush(c)
	}
	return nil
}

// stepClient executes one iteration of client c; returns false when the
// client has no more work.
func (s *sim) stepClient(c *client) bool {
	boxIdx, ok := c.next()
	if !ok {
		return false
	}
	it := s.prog.Nest.IndexToIter(boxIdx, c.iterBuf)
	t := c.time
	for _, ref := range s.prog.Refs {
		subs := ref.Eval(it, c.subsBuf[:len(ref.Exprs)])
		chunk := s.prog.Data.ChunkOf(ref.Array, subs)
		lat := s.access(c, chunk, ref.Kind == polyhedral.Write, t)
		t += lat
		c.ioMS += lat
	}
	t += s.params.ComputePerIterMS
	c.time = t
	s.iters++
	return true
}

// access performs one chunk access from client c at time now and returns
// its latency.
func (s *sim) access(c *client, chunk int, write bool, now float64) float64 {
	path := s.paths[c.id]
	leafLevel := path[0].Level
	chunkB := s.prog.Data.ChunkBytes
	record := func(hitTreeLevel int) {
		if s.params.TraceSink == nil {
			return
		}
		paperLevel := 0
		if hitTreeLevel >= 0 {
			paperLevel = s.tree.Height() - hitTreeLevel + 1
		}
		s.params.TraceSink(c.id, chunk, write, paperLevel, now)
	}

	// peerProbe implements cooperative caching: check the sibling client
	// caches under the same parent for a clean copy.
	peerProbe := func() (float64, bool) {
		if !s.params.Cooperative || len(path) < 2 {
			return 0, false
		}
		parent := path[1]
		for _, sib := range parent.Children {
			if sib == path[0] {
				continue
			}
			if s.caches[sib.ID].Contains(chunk) {
				s.peerHits++
				lat := s.params.PeerHitMS
				if lat == 0 {
					lat = s.fabric.RoundTripMS(parent.Level, leafLevel, chunkB)
				}
				// Replicate into the local cache.
				s.insert(path, 0, chunk, write)
				record(path[0].Level)
				return lat, true
			}
		}
		return 0, false
	}

	if write {
		switch s.params.Writes {
		case WriteAllocateNoFetch:
			// Probe and dirty the local cache only; allocate on miss
			// without fetching (whole-chunk client write caching).
			if s.caches[path[0].ID].Lookup(chunk, true) {
				record(path[0].Level)
				return s.params.L1HitMS
			}
			s.insert(path, 0, chunk, true)
			record(path[0].Level)
			return s.params.L1HitMS
		case WriteThrough:
			if s.caches[path[0].ID].Lookup(chunk, true) {
				record(path[0].Level)
				return s.params.L1HitMS
			}
			top := path[len(path)-1]
			upLat := s.fabric.RoundTripMS(top.Level, leafLevel, 0) / 2
			s.disks.Writeback(chunk, now+upLat)
			record(-1)
			return upLat + s.params.L1HitMS
		}
		// WriteAllocateFetch falls through to the read path below,
		// dirtying the L1 copy.
	}

	// Probe the hierarchy bottom-up: local cache, cooperative peers, then
	// the shared levels.
	if s.caches[path[0].ID].Lookup(chunk, write) {
		record(path[0].Level)
		return s.params.L1HitMS
	}
	if lat, ok := peerProbe(); ok {
		return lat
	}
	for i := 1; i < len(path); i++ {
		node := path[i]
		if s.caches[node.ID].Lookup(chunk, false) {
			record(node.Level)
			lat := s.fabric.RoundTripMS(node.Level, leafLevel, chunkB) + s.params.CacheServiceMS
			if s.params.Exclusive {
				// Promote: the provider gives the chunk up; only the
				// client keeps a copy.
				wasDirty := s.caches[node.ID].Remove(chunk)
				s.insert(path, 0, chunk, write || wasDirty)
			} else {
				s.fill(path, i, chunk, write)
			}
			return lat
		}
	}

	// Full miss: fetch from disk through the top of the path.
	top := path[len(path)-1]
	// Request travels up (headers only), data comes back down.
	upLat := s.fabric.RoundTripMS(top.Level, leafLevel, 0) / 2
	downLat := s.fabric.RoundTripMS(top.Level, leafLevel, chunkB) / 2
	done := s.disks.Read(chunk, now+upLat)
	if s.params.Exclusive {
		s.insert(path, 0, chunk, write)
	} else {
		s.fill(path, len(path), chunk, write)
	}
	if k := s.params.PrefetchDepth; k > 0 {
		s.prefetch(path, chunk, k, done)
	}
	record(-1)
	return (done - now) + downLat
}

// prefetch stages the next k sequential chunks into the topmost
// cache-bearing node of the path, reading them from disk asynchronously.
func (s *sim) prefetch(path []*hierarchy.Node, chunk, k int, now float64) {
	// Find the topmost cache on the path (skip cache-less dummy roots).
	top := -1
	for i := len(path) - 1; i > 0; i-- {
		if s.caches[path[i].ID].Capacity() > 0 {
			top = i
			break
		}
	}
	if top < 0 {
		return
	}
	c := s.caches[path[top].ID]
	maxChunk := s.prog.Data.NumChunks()
	for next := chunk + 1; next <= chunk+k && next < maxChunk; next++ {
		if c.Contains(next) {
			continue
		}
		s.disks.Read(next, now)
		s.prefetches++
		s.insert(path, top, next, false)
	}
}

// fill inserts the chunk into every cache on the path strictly below
// hitIdx, dirtying the L1 copy on writes and demoting evicted dirty chunks.
func (s *sim) fill(path []*hierarchy.Node, hitIdx int, chunk int, write bool) {
	for i := hitIdx - 1; i >= 0; i-- {
		dirty := write && i == 0
		s.insert(path, i, chunk, dirty)
	}
}

// insert puts a chunk into the cache at path index i and handles the
// resulting eviction: dirty victims are demoted to the parent cache (or
// written back to disk past the top / past cache-less ancestors). Under
// exclusive caching clean victims demote too (the DEMOTE operation), so
// the path's levels act as one victim-chained cache.
func (s *sim) insert(path []*hierarchy.Node, i int, chunk int, dirty bool) {
	ev, ok := s.caches[path[i].ID].Insert(chunk, dirty)
	if !ok {
		return
	}
	if !ev.Dirty && !s.params.Exclusive {
		return
	}
	// Demote the victim to the nearest cache-bearing ancestor.
	for j := i + 1; j < len(path); j++ {
		if s.caches[path[j].ID].Capacity() > 0 {
			s.insert(path, j, ev.Chunk, ev.Dirty)
			return
		}
	}
	// No ancestor can hold it: write dirty data back to disk (clean
	// victims simply drop). The eviction is asynchronous, so the disk
	// queues it at its own availability.
	if ev.Dirty {
		s.disks.Writeback(ev.Chunk, 0)
	}
}

func (s *sim) metrics() *Metrics {
	m := &Metrics{
		LevelStats:     make(map[int]cache.Stats),
		Height:         s.tree.Height(),
		ClientIOMS:     make([]float64, len(s.clients)),
		ClientExecMS:   make([]float64, len(s.clients)),
		DiskReads:      s.disks.Reads,
		DiskWritebacks: s.disks.Writebacks,
		DiskBusyMS:     s.disks.BusyMS,
		Prefetches:     s.prefetches,
		PeerHits:       s.peerHits,
		Iterations:     s.iters,
		Truncated:      s.truncated,
	}
	for _, n := range s.tree.Nodes() {
		if n.CacheChunks <= 0 {
			continue
		}
		st := m.LevelStats[n.Level]
		st.Add(s.caches[n.ID].Stats())
		m.LevelStats[n.Level] = st
	}
	for i, c := range s.clients {
		m.ClientIOMS[i] = c.ioMS
		m.ClientExecMS[i] = c.time
	}
	return m
}

// heap operations: min on (time, id) for determinism.

func (s *sim) heapLess(a, b *client) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.id < b.id
}

func (s *sim) heapPush(c *client) {
	s.heap = append(s.heap, c)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *sim) heapPop() *client {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s.heap) && s.heapLess(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < len(s.heap) && s.heapLess(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
	return top
}
