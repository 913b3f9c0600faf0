package mpiio

import (
	"slices"
	"testing"
	"testing/quick"

	"dafsio/internal/aggregate"
)

// Property: mergeRanges produces sorted, disjoint, non-adjacent output
// covering exactly the union of the inputs.
func TestMergeRangesProperties(t *testing.T) {
	prop := func(raw []uint16) bool {
		var in []Segment
		for i := 0; i+1 < len(raw); i += 2 {
			in = append(in, Segment{Off: int64(raw[i] % 500), Len: int64(raw[i+1]%50) + 1})
		}
		out := mergeRanges(slices.Clone(in)) // it merges in place
		// Sorted, disjoint, with gaps between consecutive ranges.
		for i := 1; i < len(out); i++ {
			if out[i].Off <= out[i-1].Off+out[i-1].Len {
				return false
			}
		}
		// Union equality via point sampling.
		covered := func(segs []Segment, x int64) bool {
			for _, s := range segs {
				if x >= s.Off && x < s.Off+s.Len {
					return true
				}
			}
			return false
		}
		for x := int64(0); x < 600; x += 3 {
			if covered(in, x) != covered(out, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: domain partitioning tiles [gmin, gmax) exactly and EqualOwner
// agrees with EqualBounds for arbitrary hulls and aggregator counts.
func TestDomainPartitionProperty(t *testing.T) {
	prop := func(a, b uint16, nAggRaw uint8) bool {
		gmin := int64(a)
		gmax := gmin + int64(b) + 1
		nAgg := int(nAggRaw%8) + 1
		prev := gmin
		for i := 0; i < nAgg; i++ {
			lo, hi := aggregate.EqualBounds(gmin, gmax, nAgg, i)
			if lo != prev || hi < lo || hi > gmax {
				return false
			}
			prev = hi
		}
		if prev != gmax {
			return false
		}
		for off := gmin; off < gmax; off += max(1, (gmax-gmin)/17) {
			d := aggregate.EqualOwner(gmin, gmax, nAgg, off)
			lo, hi := aggregate.EqualBounds(gmin, gmax, nAgg, d)
			if off < lo || off >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any (possibly noncontiguous) datatype and any offset, the
// physical segments a view produces are disjoint and total the requested
// byte count — the invariant all I/O paths build on.
func TestPhysSegsProperty(t *testing.T) {
	prop := func(blk, gap, count uint8, disp uint16, off, n uint16) bool {
		blocklen := int64(blk%32) + 1
		stride := blocklen + int64(gap%32)
		cnt := int64(count%6) + 1
		f := &File{disp: int64(disp), ftype: Vector(cnt, blocklen, stride)}
		want := int(n%2048) + 1
		segs := f.physSegs(nil, int64(off), want)
		total := int64(0)
		prevEnd := int64(-1)
		for _, s := range segs {
			if s.Off <= prevEnd || s.Off < f.disp {
				return false
			}
			prevEnd = s.Off + s.Len - 1
			total += s.Len
		}
		return total == int64(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Indexed preserves total size regardless of block order, and
// normalization is idempotent.
func TestIndexedNormalizationProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var blocks []Segment
		pos := int64(0)
		var total int64
		for _, r := range raw {
			pos += int64(r%7) + 1 // gap, guarantees disjoint
			l := int64(r%5) + 1
			blocks = append(blocks, Segment{Off: pos, Len: l})
			pos += l
			total += l
		}
		// Shuffle deterministically by reversing.
		rev := make([]Segment, len(blocks))
		for i, b := range blocks {
			rev[len(blocks)-1-i] = b
		}
		d1 := Indexed(blocks)
		d2 := Indexed(rev)
		if d1.Size() != total || d2.Size() != total {
			return false
		}
		s1, s2 := d1.Segments(), d2.Segments()
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
