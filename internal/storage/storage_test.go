package storage

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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
	if len(s.files) != 3 {
		t.Fatalf("%d files", len(s.files))
	}
}

func TestReadWriteAt(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	if n, err := f.WriteAt([]byte("hello"), 3); n != 5 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
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
	if n, err := f.WriteAt([]byte("x"), -1); n != 0 || !errors.Is(err, ErrObjectBound) {
		t.Fatalf("negative write = %d, %v", n, err)
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

// Appending 64 KB x 512 allocates each page once and never moves it: the
// runtime hands out at most the final size plus one page and the page
// index, however many calls built the file.
func TestAppendAllocatesOnlyItsPages(t *testing.T) {
	const chunk, calls = 64 << 10, 512
	s := NewStore()
	f, _ := s.Create("f")
	data := bytes.Repeat([]byte{0xA5}, chunk)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f.WriteAt(data, 0)
	first := &f.pages[0][0]
	for i := 1; i < calls; i++ {
		f.WriteAt(data, f.Size())
	}
	runtime.ReadMemStats(&m1)
	final := int64(chunk * calls)
	if f.Size() != final {
		t.Fatalf("size %d, want %d", f.Size(), final)
	}
	if &f.pages[0][0] != first {
		t.Error("the first page moved while the file grew")
	}
	index := int64(indexRoom) * int64(unsafe.Sizeof(f.pages[0]))
	if allocated := int64(m1.TotalAlloc - m0.TotalAlloc); allocated > final+pageSize+index {
		t.Errorf("a %d-byte file allocated %d bytes, want <= %d (the file, one page and the index)", final, allocated, final+pageSize+index)
	}
	got := make([]byte, chunk)
	for off := int64(0); off < final; off += chunk {
		if n := f.ReadAt(got, off); n != chunk || !bytes.Equal(got, data) {
			t.Fatalf("read-back at %d: n=%d", off, n)
		}
	}
}

// Whatever a Truncate cut off reads back as zeros when the file grows over
// it again, by Truncate or by a write past the new end, within a page and
// across the pages it dropped.
func TestRegrowAfterTruncateReadsZeros(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt(bytes.Repeat([]byte{0xFF}, 4096), 0)

	f.Truncate(100)
	f.Truncate(4096)
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

	const size = 3*pageSize + 10
	f.WriteAt(bytes.Repeat([]byte{0xFF}, size), 0)
	f.Truncate(pageSize + 100)
	if len(f.pages) != 2 || slices.ContainsFunc(f.pages[2:cap(f.pages)], func(p []byte) bool { return p != nil }) {
		t.Fatalf("Truncate to 1 page + 100 B kept %d pages and still holds later ones", len(f.pages))
	}
	f.Truncate(size)
	got = make([]byte, size)
	f.ReadAt(got, 0)
	if !bytes.Equal(got[:pageSize+100], bytes.Repeat([]byte{0xFF}, pageSize+100)) || !bytes.Equal(got[pageSize+100:], make([]byte, size-pageSize-100)) {
		t.Fatal("regrowing over dropped pages exposed stale bytes")
	}
}

// Growing by Truncate only moves the end: a 1 GB file costs less than one
// page, and its bytes read as zeros.
func TestTruncateUpAllocatesNoPages(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f.Truncate(1 << 30)
	runtime.ReadMemStats(&m1)
	if allocated := m1.TotalAlloc - m0.TotalAlloc; allocated >= pageSize {
		t.Fatalf("a 1 GB Truncate allocated %d bytes, want less than a page (%d)", allocated, pageSize)
	}
	if f.Size() != 1<<30 {
		t.Fatalf("size %d, want 1 GB", f.Size())
	}
	got := bytes.Repeat([]byte{0xFF}, 4096)
	if n := f.ReadAt(got, 1<<30-100); n != 100 || !bytes.Equal(got[:100], make([]byte, 100)) {
		t.Fatalf("tail of a truncated-up file: n=%d, want 100 zeros", n)
	}
}

// A page no write touched is a hole: it holds no memory and reads as
// zeros, alone or between pages that hold data.
func TestHolesReadZeros(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("head"), 0)
	f.WriteAt([]byte("tail"), 3*pageSize)
	if f.pages[1] != nil || f.pages[2] != nil {
		t.Fatal("a write past a hole allocated the pages in between")
	}
	got := bytes.Repeat([]byte{0xFF}, 3*pageSize+4)
	if n := f.ReadAt(got, 0); n != len(got) {
		t.Fatalf("ReadAt = %d, want %d", n, len(got))
	}
	if string(got[:4]) != "head" || string(got[3*pageSize:]) != "tail" {
		t.Fatalf("data around the hole: %q ... %q", got[:4], got[3*pageSize:])
	}
	if !bytes.Equal(got[4:3*pageSize], make([]byte, 3*pageSize-4)) {
		t.Fatal("the hole did not read as zeros")
	}
}

// Writes and reads that straddle page boundaries, by a few bytes and by
// more than a page, land and read back whole.
func TestPageStraddle(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	small := []byte("0123456789")
	f.WriteAt(small, pageSize-4)
	big := make([]byte, 2*pageSize+20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	f.WriteAt(big, 2*pageSize-10)

	got := make([]byte, len(small))
	if n := f.ReadAt(got, pageSize-4); n != len(small) || !bytes.Equal(got, small) {
		t.Fatalf("straddling read %q (n=%d), want %q", got, n, small)
	}
	got = make([]byte, len(big))
	if n := f.ReadAt(got, 2*pageSize-10); n != len(big) || !bytes.Equal(got, big) {
		t.Fatalf("read across three pages: n=%d, content differs", n)
	}
	if f.Size() != 4*pageSize+10 {
		t.Fatalf("size %d, want %d", f.Size(), 4*pageSize+10)
	}
	// A read that straddles the end of the file stops there.
	got = make([]byte, 100)
	if n := f.ReadAt(got, 4*pageSize-20); n != 30 || !bytes.Equal(got[:30], big[len(big)-30:]) {
		t.Fatalf("read across EOF: n=%d", n)
	}
}

// FuzzFile runs a sequence of WriteAt, Truncate and ReadAt calls on a File
// and on a flat []byte reference, and checks that they agree after every
// step. Each call is six input bytes: the operation, a page number, a
// signed offset from that page's start (so sequences reach page
// boundaries from both sides) and a length. The fourth operation reaches
// outside [0, MaxObject] — a write that ends past the bound, a write at a
// negative offset, or a size past the bound — and the store must refuse it
// whole with ErrObjectBound, leaving the file and its pages as they were.
func FuzzFile(f *testing.F) {
	f.Add([]byte{0, 1, 0xFF, 0xF0, 0x01, 0x00, 2, 1, 0xFF, 0xF8, 0x00, 0x40})
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 1, 0, 0, 0x10, 0, 0, 1, 3, 0, 0, 0, 0, 2, 0, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{0, 2, 0x00, 0x10, 0x00, 0x20, 1, 1, 0x00, 0x08, 0, 0, 0, 3, 0xFF, 0xFF, 0x00, 0x10, 2, 1, 0xFF, 0x00, 0x10, 0x00})
	f.Add([]byte{1, 3, 0x7F, 0xFF, 0, 0, 2, 2, 0, 0, 0x80, 0x00, 1, 0, 0x00, 0x05, 0, 0, 0, 0, 0x00, 0x03, 0x00, 0x04})
	f.Add([]byte{0, 0, 0x00, 0x10, 0x00, 0x20, 3, 0, 5, 7, 0, 0, 3, 1, 2, 0, 0, 9, 3, 2, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewStore()
		file, _ := s.Create("f")
		var ref []byte
		for step := 0; len(ops) >= 6; step, ops = step+1, ops[6:] {
			off := max(0, int64(ops[1]%4)*pageSize+int64(int16(ops[2])<<8|int16(ops[3])))
			n := int(ops[4])<<8 | int(ops[5])
			switch ops[0] % 4 {
			case 0:
				b := bytes.Repeat([]byte{byte(step + 1)}, n)
				if got, err := file.WriteAt(b, off); got != n || err != nil {
					t.Fatalf("step %d: WriteAt(%d B, %d) = %d, %v", step, n, off, got, err)
				}
				if end := off + int64(n); end > int64(len(ref)) {
					ref = append(ref, make([]byte, end-int64(len(ref)))...)
				}
				copy(ref[off:], b)
			case 1:
				file.Truncate(off)
				if off > int64(len(ref)) {
					ref = append(ref, make([]byte, off-int64(len(ref)))...)
				}
				ref = ref[:off:off]
			case 2:
				got := bytes.Repeat([]byte{0xEE}, n)
				want := int(min(int64(n), max(0, int64(len(ref))-off)))
				if k := file.ReadAt(got, off); k != want || k > 0 && !bytes.Equal(got[:k], ref[off:off+int64(k)]) {
					t.Fatalf("step %d: ReadAt(%d B, %d) = %d, want %d (or content differs)", step, n, off, k, want)
				}
			case 3:
				pages, k := file.Pages(), int64(ops[2])
				var err error
				switch ops[1] % 3 {
				case 0: // ends ops[3]+1 bytes past the bound
					_, err = file.WriteAt(make([]byte, k+1+int64(ops[3])), MaxObject-k)
				case 1:
					_, err = file.WriteAt(make([]byte, n%256), -1-k)
				case 2:
					err = file.Truncate(MaxObject + 1 + k)
				}
				if !errors.Is(err, ErrObjectBound) || file.Pages() != pages {
					t.Fatalf("step %d: out-of-bound op %d: err %v, %d pages (had %d)", step, ops[1]%3, err, file.Pages(), pages)
				}
			}
			if file.Size() != int64(len(ref)) {
				t.Fatalf("step %d: size %d, want %d", step, file.Size(), len(ref))
			}
		}
		all := make([]byte, len(ref))
		if n := file.ReadAt(all, 0); n != len(ref) || !bytes.Equal(all, ref) {
			t.Fatalf("final content differs from the reference (n=%d of %d)", n, len(ref))
		}
	})
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
