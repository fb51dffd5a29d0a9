// Package disk models the storage-node disks behind the cache hierarchy:
// seek + rotational + transfer service times, PVFS-style striping of data
// chunks across storage nodes, and a simple sequential-access optimization
// (adjacent stripes on the same disk skip the positioning cost).
package disk

import "fmt"

// Params characterizes one disk. The paper's Table 1 disks are 10,000 RPM
// with 64 KB stripes.
type Params struct {
	SeekMS         float64 // average positioning (seek) time
	RPM            float64 // spindle speed; average rotational delay is half a revolution
	TransferMBps   float64 // sustained media transfer rate
	WritePenaltyMS float64 // extra cost for writebacks (head settle)
	// Short forward seeks (within NearWindow stripes ahead of the head)
	// cost NearSeekMS instead of the full positioning cost, modelling
	// track buffers and elevator scheduling.
	NearSeekMS float64
	NearWindow int64
	// StripeChunks is the stripe depth: how many consecutive data chunks
	// land on one disk before striping moves to the next (PVFS stripe unit
	// over chunk-sized pages). Values <= 1 mean one chunk per stripe.
	StripeChunks int
}

// DefaultParams returns a 10,000 RPM disk comparable to Table 1.
func DefaultParams() Params {
	return Params{SeekMS: 3.0, RPM: 10000, TransferMBps: 100, WritePenaltyMS: 0.5,
		NearSeekMS: 0.6, NearWindow: 64, StripeChunks: 4}
}

// RotationalMS returns the average rotational latency (half a revolution).
func (p Params) RotationalMS() float64 {
	if p.RPM <= 0 {
		return 0
	}
	return 60000.0 / p.RPM / 2.0
}

// TransferMS returns the media transfer time for n bytes.
func (p Params) TransferMS(bytes int64) float64 {
	if p.TransferMBps <= 0 {
		return 0
	}
	return float64(bytes) / (p.TransferMBps * 1024 * 1024) * 1000
}

// streamHeads is the number of concurrent sequential streams each disk's
// server tracks for readahead (PVFS-style per-stream detection).
const streamHeads = 64

// Array is a striped set of disks: chunk i lives on disk i mod N (the
// stripe unit equals the data chunk size, as in the paper's setup). Each
// disk serializes its requests; nextFree tracks per-disk queue state for
// the event-driven simulator. Sequential detection keeps several stream
// heads per disk, so interleaved sequential streams from different clients
// still enjoy readahead — as they do behind a real parallel file system
// server.
type Array struct {
	params   Params
	chunkB   int64
	nDisks   int
	nextFree []float64
	heads    [][]int // recent stream positions per disk
	headPos  []int   // round-robin replacement cursor per disk

	Reads      int64
	Writebacks int64
	BusyMS     float64
}

// NewArray builds a striped disk array.
func NewArray(params Params, numDisks int, chunkBytes int64) *Array {
	if numDisks <= 0 {
		panic(fmt.Sprintf("disk: non-positive disk count %d", numDisks))
	}
	if chunkBytes <= 0 {
		panic(fmt.Sprintf("disk: non-positive chunk size %d", chunkBytes))
	}
	heads := make([][]int, numDisks)
	for i := range heads {
		heads[i] = make([]int, 0, streamHeads)
	}
	return &Array{params: params, chunkB: chunkBytes, nDisks: numDisks,
		nextFree: make([]float64, numDisks), heads: heads, headPos: make([]int, numDisks)}
}

// DiskOf returns the disk holding a chunk.
func (a *Array) DiskOf(chunk int) int {
	if chunk < 0 {
		panic(fmt.Sprintf("disk: negative chunk %d", chunk))
	}
	depth := a.params.StripeChunks
	if depth < 1 {
		depth = 1
	}
	return (chunk / depth) % a.nDisks
}

// diskOffset returns the chunk's position within its disk (its logical
// block order on that disk), used for sequential detection.
func (a *Array) diskOffset(chunk int) int {
	depth := a.params.StripeChunks
	if depth < 1 {
		depth = 1
	}
	stripe := chunk / depth
	return (stripe/a.nDisks)*depth + chunk%depth
}

// serviceMS computes the raw service time of one chunk on one disk and
// updates the stream heads. A request one stripe ahead of a tracked stream
// is sequential (transfer only); a short forward skip within NearWindow
// stripes of a stream pays the reduced near-seek cost; everything else
// pays the full positioning cost and opens a new stream.
func (a *Array) serviceMS(d, chunk int, write bool) float64 {
	svc := a.params.TransferMS(a.chunkB)
	pos := a.diskOffset(chunk)
	heads := a.heads[d]
	best := int64(1) << 62
	bestIdx := -1
	for i, h := range heads {
		delta := int64(pos - h)
		if delta >= 1 && delta < best {
			best, bestIdx = delta, i
		}
	}
	switch {
	case bestIdx >= 0 && best == 1:
		// sequential: no positioning cost
	case bestIdx >= 0 && a.params.NearWindow > 0 && best <= a.params.NearWindow:
		svc += a.params.NearSeekMS
	default:
		svc += a.params.SeekMS + a.params.RotationalMS()
		bestIdx = -1 // too far from every stream: open a new one
	}
	if bestIdx >= 0 {
		heads[bestIdx] = pos
	} else if len(heads) < streamHeads {
		a.heads[d] = append(heads, pos)
	} else {
		heads[a.headPos[d]] = pos
		a.headPos[d] = (a.headPos[d] + 1) % streamHeads
	}
	if write {
		svc += a.params.WritePenaltyMS
	}
	return svc
}

// Read services a read of chunk issued at time nowMS and returns the
// completion time. The request queues behind earlier requests on the same
// disk.
func (a *Array) Read(chunk int, nowMS float64) (doneMS float64) {
	d := a.DiskOf(chunk)
	start := nowMS
	if a.nextFree[d] > start {
		start = a.nextFree[d]
	}
	svc := a.serviceMS(d, chunk, false)
	a.nextFree[d] = start + svc
	a.Reads++
	a.BusyMS += svc
	return start + svc
}

// Writeback enqueues an asynchronous dirty-chunk writeback at time nowMS.
// The caller does not wait; the disk is simply kept busy.
func (a *Array) Writeback(chunk int, nowMS float64) {
	d := a.DiskOf(chunk)
	start := nowMS
	if a.nextFree[d] > start {
		start = a.nextFree[d]
	}
	svc := a.serviceMS(d, chunk, true)
	a.nextFree[d] = start + svc
	a.Writebacks++
	a.BusyMS += svc
}
