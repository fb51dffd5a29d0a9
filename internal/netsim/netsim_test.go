package netsim

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLinkTransfer(t *testing.T) {
	l := Link{LatencyMS: 0.1, BandwidthMBps: 100}
	if !almost(l.TransferMS(0), 0.1) {
		t.Fatalf("header transfer = %v", l.TransferMS(0))
	}
	want := 0.1 + 1000.0 // 100 MB at 100 MB/s = 1000 ms
	if !almost(l.TransferMS(100*1024*1024), want) {
		t.Fatalf("TransferMS = %v, want %v", l.TransferMS(100*1024*1024), want)
	}
	inf := Link{LatencyMS: 0.2}
	if !almost(inf.TransferMS(1<<30), 0.2) {
		t.Fatal("infinite bandwidth should cost latency only")
	}
}

func TestFabricLevels(t *testing.T) {
	f := &Fabric{levels: []Link{{LatencyMS: 1}, {LatencyMS: 2}}}
	if f.Height() != 2 {
		t.Fatalf("Height = %d", f.Height())
	}
	if f.Level(0).LatencyMS != 1 || f.Level(1).LatencyMS != 2 {
		t.Fatal("Level returns wrong link")
	}
}

func TestFabricLevelPanics(t *testing.T) {
	f := Uniform(2, Link{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range level did not panic")
		}
	}()
	f.Level(2)
}

func TestUniformAndDefault(t *testing.T) {
	f := Uniform(3, Link{LatencyMS: 0.5})
	for l := 0; l < 3; l++ {
		if f.Level(l).LatencyMS != 0.5 {
			t.Fatal("Uniform not uniform")
		}
	}
	d := DefaultFabric(2)
	if d.Height() != 2 || d.Level(0).LatencyMS <= 0 {
		t.Fatal("DefaultFabric malformed")
	}
}

func TestRoundTrip(t *testing.T) {
	// Two link levels, leaf at level 2, provider at level 0: the payload
	// crosses both levels once each way.
	f := &Fabric{levels: []Link{{LatencyMS: 1, BandwidthMBps: 0}, {LatencyMS: 2, BandwidthMBps: 0}}}
	got := f.RoundTripMS(0, 2, 64<<10)
	if !almost(got, 2*(1+2)) {
		t.Fatalf("RoundTripMS = %v, want 6", got)
	}
	// Provider one hop up crosses only the lower link.
	if got := f.RoundTripMS(1, 2, 0); !almost(got, 4) {
		t.Fatalf("one-hop RoundTripMS = %v, want 4", got)
	}
	// Same level: free.
	if f.RoundTripMS(2, 2, 1024) != 0 {
		t.Fatal("zero-hop round trip should be 0")
	}
}

func TestRoundTripBandwidthAsymmetry(t *testing.T) {
	// The payload term applies once per level (response direction); the
	// request direction pays latency only.
	f := Uniform(1, Link{LatencyMS: 1, BandwidthMBps: 1}) // 1 MB/ms... 1 MiB/s*1024
	bytes := int64(1024 * 1024)                           // 1 MiB -> 1000 ms
	got := f.RoundTripMS(0, 1, bytes)
	if !almost(got, 1+1+1000) {
		t.Fatalf("RoundTripMS = %v, want 1002", got)
	}
}
