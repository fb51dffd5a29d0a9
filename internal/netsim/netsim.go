// Package netsim models the interconnect edges of the storage hierarchy:
// a link has a fixed per-message latency plus a bandwidth term, giving the
// time to move one data chunk across one level of the tree (compute ↔ I/O
// node ↔ storage node, i.e. the 10GigE links of the paper's platform).
package netsim

import "fmt"

// Link characterizes one class of edges in the hierarchy.
type Link struct {
	LatencyMS     float64 // per-message latency (one way)
	BandwidthMBps float64 // payload bandwidth; 0 = infinite
}

// TransferMS returns the one-way time to move n bytes across the link.
func (l Link) TransferMS(bytes int64) float64 {
	t := l.LatencyMS
	if l.BandwidthMBps > 0 {
		t += float64(bytes) / (l.BandwidthMBps * 1024 * 1024) * 1000
	}
	return t
}

// Fabric holds the per-level links of a hierarchy of a given height:
// Level(l) is the edge between tree level l and level l+1 (so a tree of
// height h has h link classes). The zero Fabric has no levels.
type Fabric struct {
	levels []Link
}

// Uniform builds a fabric with h identical link levels.
func Uniform(h int, link Link) *Fabric {
	levels := make([]Link, h)
	for i := range levels {
		levels[i] = link
	}
	return &Fabric{levels: levels}
}

// DefaultFabric approximates the paper's platform for a tree of height h:
// a 10GigE-class link everywhere.
func DefaultFabric(h int) *Fabric {
	return Uniform(h, Link{LatencyMS: 0.05, BandwidthMBps: 1000})
}

// Height returns the number of link levels.
func (f *Fabric) Height() int { return len(f.levels) }

// Level returns the link class between tree level l and l+1.
func (f *Fabric) Level(l int) Link {
	if l < 0 || l >= len(f.levels) {
		panic(fmt.Sprintf("netsim: link level %d out of range [0,%d)", l, len(f.levels)))
	}
	return f.levels[l]
}

// RoundTripMS returns the time for a request/response pair carrying bytes
// of payload (payload travels the response direction only) between a leaf
// at level leafLevel and a node at level nodeLevel.
func (f *Fabric) RoundTripMS(nodeLevel, leafLevel int, bytes int64) float64 {
	var t float64
	for l := nodeLevel; l < leafLevel; l++ {
		t += f.Level(l).TransferMS(0) // request (header only)
		t += f.Level(l).TransferMS(bytes)
	}
	return t
}
