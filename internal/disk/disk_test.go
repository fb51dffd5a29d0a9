package disk

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRotationalMS(t *testing.T) {
	p := Params{RPM: 10000}
	if !almost(p.RotationalMS(), 3.0) {
		t.Fatalf("RotationalMS = %v, want 3.0", p.RotationalMS())
	}
	if (Params{}).RotationalMS() != 0 {
		t.Fatal("zero RPM should give 0")
	}
}

func TestTransferMS(t *testing.T) {
	p := Params{TransferMBps: 100}
	if !almost(p.TransferMS(100*1024*1024), 1000) {
		t.Fatalf("TransferMS(100MB) = %v, want 1000", p.TransferMS(100*1024*1024))
	}
	if (Params{}).TransferMS(1024) != 0 {
		t.Fatal("zero bandwidth should give 0")
	}
}

func TestDiskOfStriping(t *testing.T) {
	p := DefaultParams()
	p.StripeChunks = 1
	a := NewArray(p, 4, 64<<10)
	for chunk := 0; chunk < 12; chunk++ {
		if a.DiskOf(chunk) != chunk%4 {
			t.Fatalf("chunk %d on disk %d", chunk, a.DiskOf(chunk))
		}
	}
}

func TestDiskOfStripeDepth(t *testing.T) {
	p := DefaultParams()
	p.StripeChunks = 4
	a := NewArray(p, 2, 64<<10)
	// Chunks 0-3 on disk 0, 4-7 on disk 1, 8-11 on disk 0 again.
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0}
	for chunk, d := range want {
		if a.DiskOf(chunk) != d {
			t.Fatalf("chunk %d on disk %d, want %d", chunk, a.DiskOf(chunk), d)
		}
	}
	// Logical on-disk order: chunk 8 directly follows chunk 3 on disk 0.
	if a.diskOffset(3)+1 != a.diskOffset(8) {
		t.Fatalf("diskOffset(3)=%d, diskOffset(8)=%d — not consecutive",
			a.diskOffset(3), a.diskOffset(8))
	}
}

func TestStripeDepthSequentialAcrossStripes(t *testing.T) {
	// With depth 4, reading chunks 0,1,2,3,8 on disk 0 is fully sequential
	// (8 is the next stripe on that disk).
	p := Params{SeekMS: 4, RPM: 10000, TransferMBps: 100, StripeChunks: 4}
	a := NewArray(p, 2, 64<<10)
	xfer := p.TransferMS(64 << 10)
	tEnd := a.Read(0, 0)
	for _, c := range []int{1, 2, 3, 8} {
		next := a.Read(c, tEnd)
		if !almost(next-tEnd, xfer) {
			t.Fatalf("chunk %d not sequential: service %v", c, next-tEnd)
		}
		tEnd = next
	}
}

func TestReadServiceAndQueueing(t *testing.T) {
	p := Params{SeekMS: 4, RPM: 10000, TransferMBps: 100}
	a := NewArray(p, 2, 64<<10)
	xfer := p.TransferMS(64 << 10)
	first := a.Read(0, 0)
	want := 4 + 3 + xfer
	if !almost(first, want) {
		t.Fatalf("first read done at %v, want %v", first, want)
	}
	// Second request to the same disk at t=0 queues behind the first.
	second := a.Read(4, 0) // chunk 4 -> disk 0, not sequential after 0 (next stripe is 2)
	if second <= first {
		t.Fatalf("queued read finished at %v, not after %v", second, first)
	}
	// A request to the other disk does not queue.
	other := a.Read(1, 0)
	if !almost(other, want) {
		t.Fatalf("independent disk read done at %v, want %v", other, want)
	}
	if a.Reads != 3 {
		t.Fatalf("Reads = %d", a.Reads)
	}
}

func TestSequentialSkipsPositioning(t *testing.T) {
	p := Params{SeekMS: 4, RPM: 10000, TransferMBps: 100}
	a := NewArray(p, 2, 64<<10)
	xfer := p.TransferMS(64 << 10)
	t1 := a.Read(0, 0)
	// Chunk 2 is the next stripe on disk 0: sequential, transfer only.
	t2 := a.Read(2, t1)
	if !almost(t2-t1, xfer) {
		t.Fatalf("sequential service = %v, want %v", t2-t1, xfer)
	}
	// Chunk 6 skips a stripe: positioning cost returns.
	t3 := a.Read(6, t2)
	if !almost(t3-t2, 4+3+xfer) {
		t.Fatalf("non-sequential service = %v", t3-t2)
	}
}

func TestWritebackKeepsDiskBusy(t *testing.T) {
	p := Params{SeekMS: 4, RPM: 10000, TransferMBps: 100, WritePenaltyMS: 0.5}
	a := NewArray(p, 1, 64<<10)
	a.Writeback(0, 0)
	if a.Writebacks != 1 {
		t.Fatalf("Writebacks = %d", a.Writebacks)
	}
	// A read right after queues behind the writeback. On a 1-disk array,
	// chunk 1 is the stripe following chunk 0, so the read is sequential.
	done := a.Read(1, 0)
	wb := 4 + 3 + p.TransferMS(64<<10) + 0.5
	rd := p.TransferMS(64 << 10)
	if !almost(done, wb+rd) {
		t.Fatalf("read after writeback done at %v, want %v", done, wb+rd)
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"disks": func() { NewArray(DefaultParams(), 0, 64) },
		"chunk": func() { NewArray(DefaultParams(), 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	a := NewArray(DefaultParams(), 1, 64)
	defer func() {
		if recover() == nil {
			t.Error("negative chunk did not panic")
		}
	}()
	a.DiskOf(-1)
}

// Property: completion times per disk are non-decreasing in issue order,
// and BusyMS equals the sum of service intervals.
func TestPropertyDiskQueueMonotone(t *testing.T) {
	f := func(chunks []uint8) bool {
		a := NewArray(DefaultParams(), 3, 64<<10)
		lastDone := make([]float64, 3)
		now := 0.0
		for _, cRaw := range chunks {
			c := int(cRaw)
			d := a.DiskOf(c)
			done := a.Read(c, now)
			if done < lastDone[d] {
				return false
			}
			lastDone[d] = done
			now += 0.1
		}
		return a.Reads == int64(len(chunks))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
