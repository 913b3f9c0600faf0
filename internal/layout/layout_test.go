package layout

import (
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		s  Striping
		ok bool
	}{
		{Striping{StripeSize: 64, Width: 4}, true},
		{Striping{StripeSize: 0, Width: 1}, true}, // identity ignores size
		{Striping{StripeSize: 64, Width: 0}, false},
		{Striping{StripeSize: 0, Width: 2}, false},
		{Striping{StripeSize: -4, Width: 2}, false},
	} {
		if err := tc.s.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.s, err, tc.ok)
		}
	}
}

func TestMapWidth1Identity(t *testing.T) {
	// Width 1 must be the unstriped path: one fragment, untouched offsets,
	// whatever the stripe size says.
	for _, size := range []int64{0, 7, 64} {
		s := Striping{StripeSize: size, Width: 1}
		got := s.Map(1000, 37)
		want := []Fragment{{Server: 0, Off: 1000, Len: 37}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("size %d: Map = %+v, want %+v", size, got, want)
		}
	}
}

func TestMapSmallerThanStripe(t *testing.T) {
	s := Striping{StripeSize: 64, Width: 4}
	// Entirely inside stripe 5 (server 1, row 1): one fragment.
	got := s.Map(5*64+10, 20)
	want := []Fragment{{Server: 1, Off: 64 + 10, Len: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map = %+v, want %+v", got, want)
	}
}

func TestMapExactStripeBoundary(t *testing.T) {
	s := Striping{StripeSize: 64, Width: 2}
	// [64, 192) covers stripes 1 and 2 exactly: two full-stripe fragments,
	// no partial edges.
	got := s.Map(64, 128)
	want := []Fragment{
		{Server: 1, Off: 0, Len: 64, BufOff: 0},
		{Server: 0, Off: 64, Len: 64, BufOff: 64},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map = %+v, want %+v", got, want)
	}
	// An extent ending exactly on a boundary must not emit a zero-length
	// tail fragment.
	if got := s.Map(0, 64); len(got) != 1 || got[0].Len != 64 {
		t.Errorf("aligned single stripe: %+v", got)
	}
}

func TestMapUnalignedEdges(t *testing.T) {
	s := Striping{StripeSize: 64, Width: 3}
	// [50, 200): partial stripe 0, full stripe 1, full stripe 2, partial
	// stripe 3 (back on server 0, row 1).
	got := s.Map(50, 150)
	want := []Fragment{
		{Server: 0, Off: 50, Len: 14, BufOff: 0},
		{Server: 1, Off: 0, Len: 64, BufOff: 14},
		{Server: 2, Off: 0, Len: 64, BufOff: 78},
		{Server: 0, Off: 64, Len: 8, BufOff: 142},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map = %+v, want %+v", got, want)
	}
	// Fragment lengths always cover the extent exactly.
	var sum int64
	for _, f := range got {
		sum += f.Len
	}
	if sum != 150 {
		t.Errorf("fragments cover %d bytes, want 150", sum)
	}
}

func TestMapZeroLength(t *testing.T) {
	s := Striping{StripeSize: 64, Width: 4}
	if got := s.Map(100, 0); got != nil {
		t.Errorf("zero-length extent mapped to %+v", got)
	}
}

// TestAppendMapExtendsPrefix: AppendMap leaves what frags already holds
// and appends exactly Map's fragments, with buffer offsets relative to the
// extent, on any width.
func TestAppendMapExtendsPrefix(t *testing.T) {
	prefix := []Fragment{{Server: 9, Off: 1, Len: 2, BufOff: 3}}
	for _, s := range []Striping{{Width: 1}, {StripeSize: 64, Width: 4}} {
		for _, n := range []int64{0, 20, 300} {
			got := s.AppendMap(append([]Fragment(nil), prefix...), 100, n)
			want := append(append([]Fragment(nil), prefix...), s.Map(100, n)...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v n=%d: AppendMap = %+v, want %+v", s, n, got, want)
			}
		}
	}
}

func TestObjectSizesLogicalSizeRoundTrip(t *testing.T) {
	for _, s := range []Striping{
		{StripeSize: 64, Width: 1},
		{StripeSize: 64, Width: 2},
		{StripeSize: 64, Width: 3},
		{StripeSize: 7, Width: 4},
	} {
		for _, n := range []int64{0, 1, 6, 7, 8, 63, 64, 65, 128, 129, 1000} {
			sizes := s.ObjectSizes(n)
			if len(sizes) != s.Width {
				t.Fatalf("%+v: ObjectSizes(%d) has %d entries", s, n, len(sizes))
			}
			var sum int64
			for _, z := range sizes {
				sum += z
			}
			if sum != n {
				t.Errorf("%+v: ObjectSizes(%d) sums to %d", s, n, sum)
			}
			if got := s.LogicalSize(sizes); got != n {
				t.Errorf("%+v: LogicalSize(ObjectSizes(%d)) = %d", s, n, got)
			}
		}
	}
}

func TestObjectSizesMatchMap(t *testing.T) {
	// The per-server bytes of Map(0, n) must equal ObjectSizes(n), and each
	// server's fragments must tile its object densely.
	s := Striping{StripeSize: 32, Width: 3}
	for _, n := range []int64{1, 31, 32, 33, 96, 100, 321} {
		perSrv := make([]int64, s.Width)
		maxEnd := make([]int64, s.Width)
		for _, f := range s.Map(0, n) {
			perSrv[f.Server] += f.Len
			if end := f.Off + f.Len; end > maxEnd[f.Server] {
				maxEnd[f.Server] = end
			}
		}
		want := s.ObjectSizes(n)
		for i := range perSrv {
			if perSrv[i] != want[i] || maxEnd[i] != want[i] {
				t.Errorf("n=%d server %d: mapped %d bytes ending at %d, ObjectSizes says %d",
					n, i, perSrv[i], maxEnd[i], want[i])
			}
		}
	}
}

func TestContiguousCountEOFMidStripe(t *testing.T) {
	s := Striping{StripeSize: 64, Width: 2}
	frags := s.Map(0, 256) // stripes 0..3, alternating servers
	counts := []int{64, 64, 10, 0}
	// EOF 10 bytes into the third stripe: the total is the contiguous
	// prefix, even though a sparse fourth stripe could have returned data.
	if got := ContiguousCount(frags, counts); got != 138 {
		t.Errorf("ContiguousCount = %d, want 138", got)
	}
	// A short count mid-list hides any later data (hole semantics).
	if got := ContiguousCount(frags, []int{64, 10, 64, 64}); got != 74 {
		t.Errorf("ContiguousCount with hole = %d, want 74", got)
	}
	// Full counts sum normally.
	if got := ContiguousCount(frags, []int{64, 64, 64, 64}); got != 256 {
		t.Errorf("ContiguousCount full = %d, want 256", got)
	}
	if got := ContiguousCount(nil, nil); got != 0 {
		t.Errorf("ContiguousCount empty = %d", got)
	}
}

// TestServerIsFirstFragment: Server names the server of an extent's first
// fragment, the identity's server 0 whatever its stripe size.
func TestServerIsFirstFragment(t *testing.T) {
	for _, s := range []Striping{{StripeSize: 0, Width: 1}, {StripeSize: 64, Width: 3}, {StripeSize: 4096, Width: 4}} {
		for _, off := range []int64{0, 1, 63, 64, 191, 192, 4095, 4096, 12345, 1 << 20} {
			if got, want := s.Server(off), s.Map(off, 1)[0].Server; got != want {
				t.Errorf("%+v: Server(%d) = %d, want %d", s, off, got, want)
			}
		}
	}
}
