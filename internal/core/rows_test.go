package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/itset"
	"repro/internal/tags"
)

// rowChunks builds n chunks over r-bit tags of 1 to maxBits set bits, with
// consecutive iteration ranges: every tenth is empty and every fifth big
// enough to split several times.
func rowChunks(rr *rand.Rand, r, n, maxBits int, cursor *int64) []*tags.IterationChunk {
	out := make([]*tags.IterationChunk, n)
	for i := range out {
		tag := bitvec.New(r)
		for range 1 + rr.Intn(maxBits) {
			tag.Set(rr.Intn(r))
		}
		cnt := int64(1 + rr.Intn(40))
		switch rr.Intn(10) {
		case 0:
			cnt = 0
		case 1, 2:
			cnt = 100 + rr.Int63n(300)
		}
		out[i] = &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(*cursor, *cursor+cnt)}
		*cursor += cnt
	}
	return out
}

// checkRows holds every built row of dr's tenure to a fresh scan of the
// donor: each position's dot is popcount(recipient ∧ member) for a live
// member with iterations and −1 otherwise, the buckets hold exactly the
// positions of each positive dot (so no tombstone sits in one) and no
// position sits above top, and best is firstMax over the scanned dots.
func checkRows(dr *donorRows, clusters []*Cluster) error {
	donor := dr.donor
	scanned := make([]int32, len(donor.Members))
	for ci, at := range dr.rowAt {
		if at < 0 {
			continue
		}
		row, recip := &dr.rows[at], clusters[ci]
		if len(row.dots) != dr.leaves || len(row.buckets) < int(row.top)*dr.words || len(row.buckets)%dr.words != 0 {
			return fmt.Errorf("row of cluster %d: %d dots, %d bucket words, top %d; want %d dots, whole buckets up to top",
				ci, len(row.dots), len(row.buckets), row.top, dr.leaves)
		}
		inBuckets := 0
		for p := range dr.leaves {
			want := int32(-1)
			if p < len(donor.Members) && donor.sizes[p] > 0 {
				want = int32(donor.Members[p].Tag.AndPopCount(recip.Tag))
			}
			if p < len(scanned) {
				scanned[p] = max(want, 0)
			}
			if got := row.dots[p]; got != want {
				return fmt.Errorf("row of cluster %d: position %d reads %d, a fresh scan %d", ci, p, got, want)
			}
			if want > row.top {
				return fmt.Errorf("row of cluster %d: position %d's dot %d is above top %d", ci, p, want, row.top)
			}
			if want > 0 {
				inBuckets++
				if row.buckets[int(want-1)*dr.words+p/64]&(1<<(p%64)) == 0 {
					return fmt.Errorf("row of cluster %d: position %d is missing from bucket %d", ci, p, want)
				}
			}
		}
		set := 0
		for _, w := range row.buckets {
			for ; w != 0; w &= w - 1 {
				set++
			}
		}
		if set != inBuckets {
			return fmt.Errorf("row of cluster %d: buckets hold %d positions, want %d (a tombstone, an empty member or a stale dot)", ci, set, inBuckets)
		}
		if got, want := dr.best(row), firstMax(scanned, donor.sizes, 1, math.MaxInt64); got != want {
			return fmt.Errorf("row of cluster %d: best %d, firstMax over a fresh scan %d", ci, got, want)
		}
	}
	return nil
}

// TestDonorRowsInvariant drives the row cache through random tenures
// directly: gains, whole moves, splits whose keeps outgrow the rows, and
// (in a tenure over a 32,768-member donor) more rows than rowBudget holds.
// Members carry 1 to 64 set bits. After every move each built row must
// agree with a fresh scan of the donor (see checkRows).
func TestDonorRowsInvariant(t *testing.T) {
	var outgrown, drops int
	run := func(t *testing.T, seed int64, r, donorN, recipN, maxBits, tenures, moves int, sweep bool) {
		rr := rand.New(rand.NewSource(seed))
		var cursor int64
		clusters := make([]*Cluster, 1+recipN)
		for i := range clusters {
			n := 1 + rr.Intn(3)
			if i == 0 {
				n = donorN
			}
			clusters[i] = newCluster(r)
			for _, m := range rowChunks(rr, r, n, maxBits, &cursor) {
				clusters[i].add(m)
			}
		}
		d := &distributor{ctx: context.Background(), r: r}
		defer d.release()
		scr := d.scratch()
		dr := &scr.rows
		dr.reset(len(clusters), r)
		defer dr.endTenure()
		for tenure := range tenures {
			di := 0
			if tenure > 0 {
				di = rr.Intn(len(clusters))
			}
			donor := clusters[di]
			dr.setDonor(donor)
			for move := range moves {
				var live []int
				for p, n := range donor.sizes {
					if n > 0 {
						live = append(live, p)
					}
				}
				if len(live) == 0 {
					break
				}
				ri := rr.Intn(len(clusters) - 1)
				if ri >= di {
					ri++
				}
				if sweep {
					ri = 1 + move%(len(clusters)-1)
				}
				recip := clusters[ri]
				fresh, built := dr.rowAt[ri] < 0, len(dr.rows)
				row := dr.row(ri, recip)
				if fresh && len(dr.rows) != built+1 {
					drops++
				}
				p := live[rr.Intn(len(live))]
				if rr.Intn(2) == 0 {
					if p = dr.best(row); p < 0 {
						t.Fatalf("seed %d tenure %d move %d: best is -1 with %d live members", seed, tenure, move, len(live))
					}
				}
				m := donor.Members[p]
				if n := donor.sizes[p]; n >= 2 && rr.Intn(3) == 0 {
					leaves := dr.leaves
					keep, give := m.Split(1 + rr.Int63n(n-1))
					dr.split(p, keep, scr)
					if dr.leaves != leaves {
						outgrown++
					}
					dr.gain(dr.row(ri, recip), recip.Tag, give.Tag)
					recip.add(give)
				} else {
					dr.remove(p, scr)
					dr.gain(row, recip.Tag, m.Tag)
					recip.add(m)
				}
				if err := checkRows(dr, clusters); err != nil {
					t.Fatalf("seed %d tenure %d move %d: %v", seed, tenure, move, err)
				}
			}
			dr.endTenure()
		}
	}
	for seed := range int64(40) {
		rr := rand.New(rand.NewSource(seed))
		r := 64 + rr.Intn(449)
		run(t, seed, r, 1+rr.Intn(80), 1+rr.Intn(8), 64, 4, 60, false)
	}
	if outgrown == 0 {
		t.Fatal("no split outgrew its rows")
	}
	// The budget tenure: the rows of 36 recipients, taken in turn, hold
	// 32,769 dots each and pass rowBudget, so the cache forgets its rows
	// at least once.
	const donorN, recipN = 1 << 15, 36
	if recipN*4*(donorN+1) <= rowBudget {
		t.Fatal("budget tenure too small to pass rowBudget")
	}
	run(t, 99, 512, donorN, recipN, 4, 1, 2*recipN, true)
	if drops == 0 {
		t.Fatal("no tenure passed rowBudget")
	}
}
