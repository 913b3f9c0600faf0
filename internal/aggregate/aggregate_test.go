package aggregate

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dafsio/internal/layout"
)

// randStriping draws a valid policy: width 1–5, stripe sizes from tiny to
// page-sized, replicas 0..width.
func randStriping(rng *rand.Rand) layout.Striping {
	widths := []int{1, 2, 3, 4, 5}
	sizes := []int64{1, 7, 64, 512, 4096}
	st := layout.Striping{
		Width:      widths[rng.Intn(len(widths))],
		StripeSize: sizes[rng.Intn(len(sizes))],
		Replicas:   0,
	}
	st.Replicas = rng.Intn(st.Width + 1)
	if err := st.Validate(); err != nil {
		panic(err)
	}
	return st
}

// randSegments draws 1–8 sorted, disjoint logical segments.
func randSegments(rng *rand.Rand) []Segment {
	n := 1 + rng.Intn(8)
	segs := make([]Segment, 0, n)
	cur := int64(rng.Intn(1 << 16))
	for i := 0; i < n; i++ {
		cur += int64(rng.Intn(9000)) // gap (0 = adjacent)
		ln := int64(1 + rng.Intn(5000))
		segs = append(segs, Segment{Off: cur, Len: ln})
		cur += ln
	}
	return segs
}

// TestDomainsFallbackMatrix pins when alignment engages.
func TestDomainsFallbackMatrix(t *testing.T) {
	striped := layout.Striping{Width: 4, StripeSize: 64 << 10}
	unstriped := layout.Striping{Width: 1}
	cases := []struct {
		name    string
		st      layout.Striping
		world   int
		align   bool
		aligned bool
		nAgg    int
	}{
		{"aligned", striped, 4, true, true, 4},
		{"world-exceeds-width", striped, 8, true, true, 4},
		{"align-off", striped, 4, false, false, 4},
		{"unstriped", unstriped, 4, true, false, 4},
		{"world-below-width", striped, 3, true, false, 3},
	}
	for _, c := range cases {
		pt := Domains(c.st, 0, 1<<20, c.world, c.align)
		if aligned := pt.stripe > 0; aligned != c.aligned || pt.NAgg() != c.nAgg {
			t.Errorf("%s: aligned=%v nAgg=%d, want aligned=%v nAgg=%d",
				c.name, aligned, pt.NAgg(), c.aligned, c.nAgg)
		}
	}
}

// TestPartitionTilesHull: walking Owner from gmin covers the hull exactly
// once, owners stay in range, and — when aligned — every piece maps onto
// exactly the server matching its owner.
func TestPartitionTilesHull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		st := randStriping(rng)
		world := 1 + rng.Intn(8)
		align := rng.Intn(2) == 0
		gmin := int64(rng.Intn(1 << 20))
		gmax := gmin + int64(1+rng.Intn(1<<20))
		pt := Domains(st, gmin, gmax, world, align)

		cur := gmin
		for cur < gmax {
			a, hi := pt.Owner(cur)
			if a < 0 || a >= pt.NAgg() {
				t.Fatalf("owner %d out of range [0,%d) at off %d", a, pt.NAgg(), cur)
			}
			if hi <= cur || hi > gmax {
				t.Fatalf("piece [%d,%d) does not advance within hull [%d,%d)", cur, hi, gmin, gmax)
			}
			// Every byte of the piece has the same owner.
			if a2, hi2 := pt.Owner(hi - 1); a2 != a || hi2 != hi {
				t.Fatalf("piece [%d,%d): owner(%d)=(%d,%d), want (%d,%d)", cur, hi, hi-1, a2, hi2, a, hi)
			}
			if pt.stripe > 0 {
				for _, fr := range st.Map(cur, hi-cur) {
					if fr.Server != a {
						t.Fatalf("aligned piece [%d,%d) owned by %d maps to server %d", cur, hi, a, fr.Server)
					}
				}
			}
			cur = hi
		}
	}
}

// TestEqualSplitMatchesOwner: in the fallback partition, Owner agrees with
// the EqualOwner/EqualBounds pair it wraps.
func TestEqualSplitMatchesOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		gmin := int64(rng.Intn(1 << 16))
		gmax := gmin + int64(1+rng.Intn(1<<18))
		n := 1 + rng.Intn(8)
		pt := Domains(layout.Striping{Width: 1}, gmin, gmax, n, true)
		off := gmin + rng.Int63n(gmax-gmin)
		a, hi := pt.Owner(off)
		wantA := EqualOwner(gmin, gmax, n, off)
		_, wantHi := EqualBounds(gmin, gmax, n, wantA)
		if a != wantA || hi != wantHi {
			t.Fatalf("Owner(%d)=(%d,%d), want (%d,%d)", off, a, hi, wantA, wantHi)
		}
	}
}

// TestGatherPermutation: a gather plan is a permutation — every user-buffer
// byte lands in exactly one (server, object-offset) slot, that slot is the
// one layout.Map assigns, staging offsets tile [0, Total) per server, and
// the copy map applied backward (scatter) inverts the gather exactly. Each
// plan is also made again into the storage of the one before, whatever its
// striping, and must come out the same.
func TestGatherPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var reused []ServerPlan
	for iter := 0; iter < 300; iter++ {
		st := randStriping(rng)
		segs := randSegments(rng)
		var bufLen int64
		for _, s := range segs {
			bufLen += s.Len
		}
		buf := make([]byte, bufLen)
		for i := range buf {
			buf[i] = byte(i % 251)
		}

		plans := Gather(st, segs)
		if reused = AppendGather(reused[:0], st, segs); fmt.Sprint(reused) != fmt.Sprint(plans) {
			t.Fatalf("iter %d: planned into reused storage:\n%v\nwant\n%v", iter, reused, plans)
		}

		// Ground truth from layout.Map directly.
		truth := make(map[string]byte)
		var bufOff int64
		for _, s := range segs {
			for _, fr := range st.Map(s.Off, s.Len) {
				for i := int64(0); i < fr.Len; i++ {
					truth[fmt.Sprintf("%d:%d", fr.Server, fr.Off+i)] = buf[bufOff+fr.BufOff+i]
				}
			}
			bufOff += s.Len
		}

		var total int64
		covered := make([]bool, bufLen)
		got := make(map[string]byte)
		for _, pl := range plans {
			total += pl.Total
			if pl.Total == 0 {
				t.Fatalf("iter %d: empty plan for server %d emitted", iter, pl.Server)
			}
			// Pack the staging buffer via the copy map (forward direction).
			stage := make([]byte, pl.Total)
			staged := make([]bool, pl.Total)
			for _, c := range pl.Copies {
				for i := int64(0); i < c.Len; i++ {
					if covered[c.BufOff+i] {
						t.Fatalf("iter %d: buf byte %d gathered twice", iter, c.BufOff+i)
					}
					covered[c.BufOff+i] = true
					if staged[c.StageOff+i] {
						t.Fatalf("iter %d: staging byte %d of server %d filled twice", iter, c.StageOff+i, pl.Server)
					}
					staged[c.StageOff+i] = true
					stage[c.StageOff+i] = buf[c.BufOff+i]
				}
			}
			for i, ok := range staged {
				if !ok {
					t.Fatalf("iter %d: staging byte %d of server %d never filled", iter, i, pl.Server)
				}
			}
			// Walk the segment list: consecutive staging bytes ↔ Segs order.
			var segSum, stagePos int64
			for _, sg := range pl.Segs {
				if sg.Len <= 0 {
					t.Fatalf("iter %d: non-positive seg %+v", iter, sg)
				}
				for i := int64(0); i < sg.Len; i++ {
					key := fmt.Sprintf("%d:%d", pl.Server, sg.Off+i)
					if _, dup := got[key]; dup {
						t.Fatalf("iter %d: slot %s written twice", iter, key)
					}
					got[key] = stage[stagePos+i]
				}
				stagePos += sg.Len
				segSum += sg.Len
			}
			if segSum != pl.Total {
				t.Fatalf("iter %d: server %d segs sum %d != total %d", iter, pl.Server, segSum, pl.Total)
			}

			// Scatter inverts gather: copy staging back into a fresh buffer.
			back := make([]byte, bufLen)
			for _, c := range pl.Copies {
				copy(back[c.BufOff:c.BufOff+c.Len], stage[c.StageOff:c.StageOff+c.Len])
			}
			for _, c := range pl.Copies {
				if !bytes.Equal(back[c.BufOff:c.BufOff+c.Len], buf[c.BufOff:c.BufOff+c.Len]) {
					t.Fatalf("iter %d: scatter did not invert gather for server %d", iter, pl.Server)
				}
			}
		}
		if total != bufLen {
			t.Fatalf("iter %d: plans carry %d bytes, buffer has %d", iter, total, bufLen)
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("iter %d: buf byte %d never gathered", iter, i)
			}
		}
		if len(got) != len(truth) {
			t.Fatalf("iter %d: %d slots planned, %d expected", iter, len(got), len(truth))
		}
		for k, v := range truth {
			if got[k] != v {
				t.Fatalf("iter %d: slot %s carries %d, want %d", iter, k, got[k], v)
			}
		}
	}
}

// TestGatherCoalescesAligned: a stripe-aligned contiguous extent collapses
// to exactly one object-contiguous Seg per server.
func TestGatherCoalescesAligned(t *testing.T) {
	st := layout.Striping{Width: 4, StripeSize: 64 << 10}
	span := int64(16) * st.StripeSize // 16 stripes, 4 per server
	plans := Gather(st, []Segment{{Off: 0, Len: span}})
	if len(plans) != 4 {
		t.Fatalf("got %d plans, want 4", len(plans))
	}
	for i, pl := range plans {
		if pl.Server != i {
			t.Errorf("plan %d targets server %d", i, pl.Server)
		}
		if len(pl.Segs) != 1 || pl.Segs[0].Off != 0 || pl.Segs[0].Len != span/4 {
			t.Errorf("server %d: segs %+v, want one seg [0,%d)", pl.Server, pl.Segs, span/4)
		}
	}
}

// TestGatherAllocsPerServer: planning a strided call makes a fixed handful
// of allocations — the plans, one backing array for all segment lists and
// one for all copy lists, 3 in all (4 under -race, the budget) — not one
// per segment, nor one per doubling of a server's list; and planning into
// the storage of the last result, as a list transfer does, makes none and
// plans the same. 8,192 128-byte
// segments of a 4-rank interleave over 4 servers (the list-I/O call of the
// strided benchmark) made 8,275 heap allocations when every segment mapped
// into a fresh fragment list, 78 while each server's lists grew by
// doubling, and 5 while the fragment scratch and the counting pass's tails
// were allocations of their own.
func TestGatherAllocsPerServer(t *testing.T) {
	st := layout.Striping{StripeSize: 64 << 10, Width: 4}
	segs := make([]Segment, 8192)
	for k := range segs {
		segs[k] = Segment{Off: int64(k) * 4 * 128, Len: 128}
	}
	allocs := testing.AllocsPerRun(5, func() { Gather(st, segs) })
	if allocs > 4 {
		t.Errorf("Gather over %d segments at width %d: %.0f allocations, budget 4", len(segs), st.Width, allocs)
	} else {
		t.Logf("Gather over %d segments at width %d: %.0f allocations", len(segs), st.Width, allocs)
	}
	plans := Gather(st, segs[:100]) // smaller lists: the first reuse grows them
	allocs = testing.AllocsPerRun(5, func() { plans = AppendGather(plans[:0], st, segs) })
	if allocs != 0 {
		t.Errorf("AppendGather into the last result's storage: %.0f allocations, want 0", allocs)
	}
	if want := Gather(st, segs); fmt.Sprint(plans) != fmt.Sprint(want) {
		t.Errorf("AppendGather into reused storage plans differently from Gather")
	}
}
