package storage

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"dafsio/internal/sim"
)

func TestCreateLookupRemove(t *testing.T) {
	s := NewStore()
	f, err := s.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a"); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	got, err := s.Lookup("a")
	if err != nil || got != f {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if _, err := s.Lookup("b"); err != ErrNotFound {
		t.Fatalf("missing lookup: %v", err)
	}
	byID, err := s.Get(f.ID())
	if err != nil || byID != f {
		t.Fatalf("get by id: %v %v", byID, err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(f.ID()); err != ErrBadHandle {
		t.Fatalf("stale handle: %v", err)
	}
	if err := s.Remove("a"); err != ErrNotFound {
		t.Fatalf("double remove: %v", err)
	}
}

func TestCreateEmptyNameFails(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestListSorted(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Create(n)
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d", s.Len())
	}
}

func TestReadWriteAt(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	if n := f.WriteAt([]byte("hello"), 3); n != 5 {
		t.Fatalf("WriteAt = %d", n)
	}
	if f.Size() != 8 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 8)
	if n := f.ReadAt(buf, 0); n != 8 {
		t.Fatalf("ReadAt = %d", n)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 'h', 'e', 'l', 'l', 'o'}) {
		t.Fatalf("content %q", buf)
	}
	// Read past EOF.
	if n := f.ReadAt(buf, 100); n != 0 {
		t.Fatalf("past-EOF read = %d", n)
	}
	// Short read at tail.
	if n := f.ReadAt(buf, 6); n != 2 {
		t.Fatalf("tail read = %d", n)
	}
	// Negative offsets are rejected.
	if n := f.WriteAt([]byte("x"), -1); n != 0 {
		t.Fatalf("negative write = %d", n)
	}
	if n := f.ReadAt(buf, -1); n != 0 {
		t.Fatalf("negative read = %d", n)
	}
}

func TestTruncate(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("abcdef"), 0)
	f.Truncate(3)
	if f.Size() != 3 {
		t.Fatalf("size = %d", f.Size())
	}
	f.Truncate(6)
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0}) {
		t.Fatalf("content %q", buf)
	}
	f.Truncate(-5)
	if f.Size() != 0 {
		t.Fatalf("size after negative truncate = %d", f.Size())
	}
}

// Property: WriteAt then ReadAt round-trips arbitrary data at arbitrary
// offsets.
func TestWriteReadRoundTripProperty(t *testing.T) {
	prop := func(data []byte, off uint16) bool {
		s := NewStore()
		f, _ := s.Create("f")
		f.WriteAt(data, int64(off))
		got := make([]byte, len(data))
		n := f.ReadAt(got, int64(off))
		return n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// The file size is always the max end-offset ever written.
func TestSizeProperty(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	maxEnd := int64(0)
	offs := []int64{0, 100, 7, 4096, 50}
	lens := []int{10, 1, 0, 300, 25}
	for i := range offs {
		f.WriteAt(make([]byte, lens[i]), offs[i])
		if end := offs[i] + int64(lens[i]); end > maxEnd && lens[i] > 0 {
			maxEnd = end
		}
	}
	if f.Size() != maxEnd {
		t.Fatalf("size %d, want %d", f.Size(), maxEnd)
	}
}

func TestSliceZeroCopy(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("abcdef"), 0)
	sl := f.Slice(2, 3)
	if string(sl) != "cde" {
		t.Fatalf("slice %q", sl)
	}
	sl[0] = 'X' // writes through to the file (buffer-cache semantics)
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if string(buf) != "abXdef" {
		t.Fatalf("after slice write: %q", buf)
	}
}

// Appending 64 KB x 512 moves the object O(log n) times and allocates at
// most 3x its final size (the parent reallocated on every call: 512 moves,
// 8 GB). The bytes are counted twice over: as capacities the object moved
// to, and as what the runtime handed out, so a copy that does not show as a
// capacity change cannot hide.
func TestAppendGrowsGeometrically(t *testing.T) {
	const chunk, calls = 64 << 10, 512
	s := NewStore()
	f, _ := s.Create("f")
	data := bytes.Repeat([]byte{0xA5}, chunk)
	moves, capacities := 0, int64(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		before := cap(f.data)
		f.WriteAt(data, f.Size())
		if c := cap(f.data); c != before {
			moves++
			capacities += int64(c)
		}
	}
	runtime.ReadMemStats(&m1)
	final := int64(chunk * calls)
	if f.Size() != final {
		t.Fatalf("size %d, want %d", f.Size(), final)
	}
	if moves > 10 { // log2(512) + 1
		t.Errorf("object moved %d times over %d appends, want O(log n)", moves, calls)
	}
	if allocated := int64(m1.TotalAlloc - m0.TotalAlloc); capacities > 3*final || allocated > 3*final {
		t.Errorf("a %d-byte object cost %d bytes of capacity and %d bytes allocated, want <= 3x", final, capacities, allocated)
	}
}

// Spare capacity never leaks old content: whatever a Truncate cut off reads
// back as zeros when the file grows over it again, by Truncate or by a
// write past the new end.
func TestRegrowAfterTruncateReadsZeros(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt(bytes.Repeat([]byte{0xFF}, 4096), 0)
	capBefore := cap(f.data)

	f.Truncate(100)
	f.Truncate(4096)
	if cap(f.data) != capBefore {
		t.Fatalf("regrow within capacity moved the object (cap %d -> %d): the stale-capacity case is not exercised", capBefore, cap(f.data))
	}
	got := make([]byte, 4096)
	f.ReadAt(got, 0)
	if !bytes.Equal(got[:100], bytes.Repeat([]byte{0xFF}, 100)) || !bytes.Equal(got[100:], make([]byte, 3996)) {
		t.Fatal("Truncate down then up did not zero the regrown tail")
	}

	f.WriteAt(bytes.Repeat([]byte{0xFF}, 4096), 0)
	f.Truncate(100)
	f.WriteAt([]byte{1, 2, 3}, 3000) // leaves a hole over the old content
	if f.Size() != 3003 {
		t.Fatalf("size %d, want 3003", f.Size())
	}
	got = make([]byte, 3003)
	f.ReadAt(got, 0)
	if !bytes.Equal(got[100:3000], make([]byte, 2900)) || !bytes.Equal(got[3000:], []byte{1, 2, 3}) {
		t.Fatal("WriteAt past a truncated tail exposed stale bytes in the hole")
	}
}

// A Slice taken before a grow that fits the capacity is still the file's
// own memory afterwards; one taken before a grow that moves the object is a
// snapshot. Either way its own range reads the same.
func TestSliceAcrossGrow(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("abcdef"), 0)
	f.WriteAt([]byte("g"), 6) // moves: capacity is now >= 12
	if cap(f.data) < 12 {
		t.Fatalf("cap %d after growing 6 -> 7, want doubling", cap(f.data))
	}
	sl := f.Slice(2, 3)
	f.WriteAt([]byte("hij"), 7) // in-capacity grow
	f.WriteAt([]byte("X"), 2)
	if string(sl) != "Xde" {
		t.Fatalf("slice %q after an in-capacity grow, want the live bytes \"Xde\"", sl)
	}
	f.WriteAt(make([]byte, 1<<10), 10) // moves the object
	f.WriteAt([]byte("Y"), 2)
	if string(sl) != "Xde" {
		t.Fatalf("slice %q after the object moved, want the snapshot \"Xde\"", sl)
	}
	if got := f.Slice(2, 3); string(got) != "Yde" {
		t.Fatalf("fresh slice %q, want \"Yde\"", got)
	}
}

// Slice is bounded by the file's length, not by its spare capacity.
func TestSlicePastEOFPanics(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt(make([]byte, 100), 0)
	f.WriteAt(make([]byte, 1), 100) // capacity 200, length 101
	defer func() {
		if recover() == nil {
			t.Fatal("Slice into spare capacity did not panic")
		}
	}()
	f.Slice(100, 50)
}

func TestDiskTiming(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 5*sim.Millisecond, 1e6) // 1 MB/s for round numbers
	var done sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		d.Access(p, 1e6) // 5ms seek + 1s transfer
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 5*sim.Millisecond + sim.Second
	if done != want {
		t.Fatalf("disk access took %v, want %v", done, want)
	}
	if d.BusyTime() != want {
		t.Fatalf("busy %v", d.BusyTime())
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", sim.Millisecond, 1e9)
	var last sim.Time
	for i := 0; i < 3; i++ {
		k.Spawn("io", func(p *sim.Proc) {
			d.Access(p, 1000)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if last < 3*sim.Millisecond {
		t.Fatalf("3 accesses finished at %v; disk arm not serialized", last)
	}
}

func TestDiskSequentialSkipsSeek(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 5*sim.Millisecond, 1e6)
	var done sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		d.AccessAt(p, 0, 1000)    // seek + 1ms
		d.AccessAt(p, 1000, 1000) // sequential: 1ms only
		d.AccessAt(p, 5000, 1000) // seek + 1ms
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*(5*sim.Millisecond) + 3*sim.Millisecond
	if done != want {
		t.Fatalf("sequential disk pattern took %v, want %v", done, want)
	}
}

func TestDiskAccessResetsPosition(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", sim.Millisecond, 1e9)
	var done sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		d.AccessAt(p, 0, 1000)
		d.Access(p, 0)         // position unknown afterwards
		d.AccessAt(p, 1000, 0) // would have been sequential, now seeks
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done < 3*sim.Millisecond {
		t.Fatalf("position not invalidated: %v", done)
	}
}
