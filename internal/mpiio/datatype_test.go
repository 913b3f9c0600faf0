package mpiio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dafsio/internal/aggregate"
)

func segsEqual(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestContiguous(t *testing.T) {
	d := Contiguous(100)
	if d.Size() != 100 || d.Extent() != 100 || !d.Contig() {
		t.Fatalf("contiguous: %v", d)
	}
	z := Contiguous(0)
	if z.Size() != 0 || z.Extent() != 0 {
		t.Fatalf("zero contiguous: %v", z)
	}
}

func TestVector(t *testing.T) {
	// 3 blocks of 4 bytes every 10 bytes: |xxxx......|xxxx......|xxxx|
	d := Vector(3, 4, 10)
	if d.Size() != 12 || d.Extent() != 24 {
		t.Fatalf("vector: %v", d)
	}
	want := []Segment{{Off: 0, Len: 4}, {Off: 10, Len: 4}, {Off: 20, Len: 4}}
	if !segsEqual(d.Segments(), want) {
		t.Fatalf("segments %v", d.Segments())
	}
	if d.Contig() {
		t.Fatal("holey vector reported contiguous")
	}
	// Degenerate: stride == blocklen coalesces into one block.
	c := Vector(5, 8, 8)
	if !c.Contig() || c.Size() != 40 {
		t.Fatalf("dense vector: %v (segs %v)", c, c.Segments())
	}
}

func TestIndexedNormalization(t *testing.T) {
	d := Indexed([]Segment{{Off: 20, Len: 5}, {Off: 0, Len: 10}, {Off: 10, Len: 10}}) // out of order, adjacent
	if !segsEqual(d.Segments(), []Segment{{Off: 0, Len: 25}}) {
		t.Fatalf("segments %v", d.Segments())
	}
	if d.Size() != 25 || d.Extent() != 25 {
		t.Fatalf("%v", d)
	}
	// Zero-length blocks vanish.
	e := Indexed([]Segment{{Off: 5, Len: 0}, {Off: 10, Len: 3}})
	if !segsEqual(e.Segments(), []Segment{{Off: 10, Len: 3}}) {
		t.Fatalf("segments %v", e.Segments())
	}
}

func TestIndexedOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on overlap")
		}
	}()
	Indexed([]Segment{{Off: 0, Len: 10}, {Off: 5, Len: 10}})
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array of 2-byte elements; 2x3 tile at (1,2).
	d := Subarray2D(4, 6, 1, 2, 2, 3, 2)
	want := []Segment{{Off: (1*6 + 2) * 2, Len: 6}, {Off: (2*6 + 2) * 2, Len: 6}}
	if !segsEqual(d.Segments(), want) {
		t.Fatalf("segments %v, want %v", d.Segments(), want)
	}
	if d.Size() != 12 || d.Extent() != 48 {
		t.Fatalf("%v", d)
	}
}

func TestResized(t *testing.T) {
	d := Vector(2, 4, 8) // extent 12
	r := d.Resized(100)
	if r.Extent() != 100 || r.Size() != d.Size() {
		t.Fatalf("%v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on shrinking extent")
		}
	}()
	d.Resized(5)
}

func TestMapRangeWithinTile(t *testing.T) {
	d := Vector(3, 4, 10) // data bytes: phys 0-3, 10-13, 20-23
	cases := []struct {
		off, n int64
		want   []Segment
	}{
		{0, 4, []Segment{{Off: 0, Len: 4}}},
		{0, 6, []Segment{{Off: 0, Len: 4}, {Off: 10, Len: 2}}},
		{2, 4, []Segment{{Off: 2, Len: 2}, {Off: 10, Len: 2}}},
		{4, 8, []Segment{{Off: 10, Len: 4}, {Off: 20, Len: 4}}},
		{11, 1, []Segment{{Off: 23, Len: 1}}},
	}
	for _, c := range cases {
		got := d.mapRange(c.off, c.n, nil)
		if !segsEqual(got, c.want) {
			t.Errorf("mapRange(%d,%d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

func TestMapRangeAcrossTiles(t *testing.T) {
	d := Vector(2, 4, 10) // size 8, extent 14: tiles at 0, 14, 28...
	// Bytes 6..10 = last 2 of tile0 block1 (phys 12,13) + first 2 of
	// tile1 block0 (phys 14,15) -> coalesces to {12,4}.
	got := d.mapRange(6, 4, nil)
	if !segsEqual(got, []Segment{{Off: 12, Len: 4}}) {
		t.Fatalf("cross-tile mapRange = %v", got)
	}
	// Whole second tile.
	got = d.mapRange(8, 8, nil)
	if !segsEqual(got, []Segment{{Off: 14, Len: 4}, {Off: 24, Len: 4}}) {
		t.Fatalf("tile1 mapRange = %v", got)
	}
}

func TestMapRangeZeroLen(t *testing.T) {
	d := Vector(2, 4, 10)
	if got := d.mapRange(3, 0, nil); len(got) != 0 {
		t.Fatalf("zero-length map = %v", got)
	}
}

// Property: mapped segments cover exactly the requested payload length, are
// strictly ascending, never overlap, and never outnumber segBound — with
// and without a gap between tiles.
func TestMapRangeProperties(t *testing.T) {
	prop := func(offRaw, nRaw uint16, blk, strideExtra, count, pad uint8) bool {
		blocklen := int64(blk%16) + 1
		stride := blocklen + int64(strideExtra%16)
		cnt := int64(count%8) + 1
		d := Vector(cnt, blocklen, stride)
		if pad%2 == 1 {
			d = d.Resized(d.Extent() + int64(pad%16))
		}
		off := int64(offRaw) % (d.Size() * 3)
		n := int64(nRaw)%(d.Size()*2) + 1
		segs := d.mapRange(off, n, nil)
		if len(segs) > d.segBound(off, n) {
			return false
		}
		var total int64
		prevEnd := int64(-1)
		for _, s := range segs {
			if s.Len <= 0 || s.Off <= prevEnd {
				return false
			}
			prevEnd = s.Off + s.Len - 1
			total += s.Len
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mapping [0, k*size) tiles the type map exactly k times.
func TestMapRangeFullTiles(t *testing.T) {
	d := Vector(3, 5, 9)
	const k = 4
	segs := d.mapRange(0, k*d.Size(), nil)
	var manual []Segment
	for tile := int64(0); tile < k; tile++ {
		for _, s := range d.Segments() {
			manual = appendSeg(manual, Segment{Off: tile*d.Extent() + s.Off, Len: s.Len})
		}
	}
	if !segsEqual(segs, manual) {
		t.Fatalf("full tiles: %v vs %v", segs, manual)
	}
}

// Randomized cross-check: scatter bytes through the datatype with mapRange
// and verify against a brute-force per-byte mapping.
func TestMapRangeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nblocks := rng.Intn(4) + 1
		var blocks []Segment
		pos := int64(0)
		for b := 0; b < nblocks; b++ {
			pos += int64(rng.Intn(5))
			l := int64(rng.Intn(6) + 1)
			blocks = append(blocks, Segment{Off: pos, Len: l})
			pos += l
		}
		d := Indexed(blocks)
		// Brute-force payload->physical table for 3 tiles.
		var table []int64
		for tile := int64(0); tile < 3; tile++ {
			for _, s := range d.Segments() {
				for i := int64(0); i < s.Len; i++ {
					table = append(table, tile*d.Extent()+s.Off+i)
				}
			}
		}
		off := int64(rng.Intn(int(d.Size() * 2)))
		n := int64(rng.Intn(int(d.Size()))) + 1
		segs := d.mapRange(off, n, nil)
		if bound := d.segBound(off, n); len(segs) > bound {
			t.Fatalf("trial %d: %d segments, segBound %d (type %v)", trial, len(segs), bound, d.Segments())
		}
		idx := off
		for _, s := range segs {
			for i := int64(0); i < s.Len; i++ {
				if table[idx] != s.Off+i {
					t.Fatalf("trial %d: payload byte %d maps to %d, want %d (type %v)",
						trial, idx, s.Off+i, table[idx], d.Segments())
				}
				idx++
			}
		}
	}
}

func TestMergeRanges(t *testing.T) {
	got := mergeRanges([]Segment{{Off: 10, Len: 5}, {Off: 0, Len: 4}, {Off: 14, Len: 3}, {Off: 30, Len: 2}, {Off: 3, Len: 2}})
	want := []Segment{{Off: 0, Len: 5}, {Off: 10, Len: 7}, {Off: 30, Len: 2}}
	if !segsEqual(got, want) {
		t.Fatalf("mergeRanges = %v, want %v", got, want)
	}
	if mergeRanges(nil) != nil {
		t.Fatal("empty merge")
	}
}

func TestDomainPartition(t *testing.T) {
	// Domains must tile [gmin, gmax) exactly and EqualOwner must agree.
	gmin, gmax := int64(100), int64(1137)
	const n = 4
	prev := gmin
	for a := 0; a < n; a++ {
		lo, hi := aggregate.EqualBounds(gmin, gmax, n, a)
		if lo != prev {
			t.Fatalf("domain %d starts at %d, want %d", a, lo, prev)
		}
		prev = hi
	}
	if prev != gmax {
		t.Fatalf("domains end at %d, want %d", prev, gmax)
	}
	for off := gmin; off < gmax; off += 13 {
		a := aggregate.EqualOwner(gmin, gmax, n, off)
		lo, hi := aggregate.EqualBounds(gmin, gmax, n, a)
		if off < lo || off >= hi {
			t.Fatalf("offset %d assigned to domain %d [%d,%d)", off, a, lo, hi)
		}
	}
}
