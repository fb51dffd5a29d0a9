package main

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is the yardstick every timing is divided by. It is
// timed in the load generator right beside the requests it pairs with, so
// a slower machine (steal, frequency, a noisy neighbour) slows both and the
// ratio keeps measuring the program. It is planner-like on purpose: 64-bit
// AND+popcount over pairs of bitsets drawn from a 4 MiB pool (the
// distributor's tag dot products, and like them sensitive to the shared
// cache), a sort of small structs (balance's slot order) and small
// allocations (cluster member lists). On the 2-vCPU VM the bounds were
// tuned on, the 4 MiB pool tracked cold-plan time better than an
// L2-resident one: plan time over reference time varied by 5.7% instead of
// 7.1% between 2.5-s windows, against 9.7% for plan time alone.
// Its inputs are fixed; never change the kernel, its sizes or
// refNominalMS, or every normalized figure recorded before stops being
// comparable.
const (
	refSets    = 2048 // bitsets in the pool
	refWords   = 256  // 64-bit words per bitset
	refPairs   = 3600 // dot products per run
	refRecords = 6144 // structs sorted per run
	refAllocs  = 3072 // small slices allocated per run
	refSeed    = 0x9E3779B97F4A7C15
)

// refNominalMS is the kernel's wall time at nominal speed: the median of
// quiet runs on the 2-vCPU x86-64 VM the benchmark's bounds were tuned on.
// A normalized timing is raw_ms × refNominalMS ÷ paired reference ms, so it
// reads as milliseconds on that machine.
const refNominalMS = 3.0

type refRecord struct {
	key  uint64
	id   int32
	size int32
}

type refKernel struct {
	bits    [][]uint64
	pairs   [][2]int32
	records []refRecord
	sortBuf []refRecord
	want    uint64 // checksum of the first run; every later run must match
}

// refSample is one timed kernel run: wall time and the thread CPU time it
// consumed (steal and preemption show in the first, not the second).
type refSample struct {
	wallMS, cpuMS float64
}

func newRefKernel() *refKernel {
	x := uint64(refSeed)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	k := &refKernel{
		bits:    make([][]uint64, refSets),
		pairs:   make([][2]int32, refPairs),
		records: make([]refRecord, refRecords),
		sortBuf: make([]refRecord, refRecords),
	}
	for i := range k.bits {
		k.bits[i] = make([]uint64, refWords)
		for w := range k.bits[i] {
			// Sparse-ish words, like chunk tags: AND of two random words.
			k.bits[i][w] = next() & next()
		}
	}
	for i := range k.pairs {
		k.pairs[i] = [2]int32{int32(next() % refSets), int32(next() % refSets)}
	}
	for i := range k.records {
		v := next()
		k.records[i] = refRecord{key: v % 4096, id: int32(i), size: int32(v >> 52)}
	}
	k.want = k.run()
	return k
}

func (k *refKernel) run() uint64 {
	var sum uint64
	for _, p := range k.pairs {
		a, b := k.bits[p[0]], k.bits[p[1]][:refWords]
		var c int
		for w := range a {
			c += bits.OnesCount64(a[w] & b[w])
		}
		sum += uint64(c)
	}
	copy(k.sortBuf, k.records)
	slices.SortFunc(k.sortBuf, func(a, b refRecord) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := 0; i < len(k.sortBuf); i += 61 {
		sum = sum*31 + uint64(k.sortBuf[i].id)
	}
	lists := make([][]int32, 0, 16)
	for i := 0; i < refAllocs; i++ {
		l := make([]int32, 0, 4)
		l = append(l, int32(i), int32(i>>3))
		if len(lists) < cap(lists) {
			lists = append(lists, l)
		} else {
			lists[i%len(lists)] = l
		}
		sum += uint64(len(l))
	}
	return sum
}

// measure times one kernel run on a locked OS thread.
func (k *refKernel) measure() refSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	t0 := time.Now()
	got := k.run()
	wall := time.Since(t0)
	cpu := threadCPU() - c0
	if got != k.want {
		panic("perfbench: reference kernel checksum changed between runs")
	}
	return refSample{wallMS: ms(wall), cpuMS: ms(cpu)}
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID for the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
