// Package storage is the DAFS server's file store: a flat namespace of
// byte-addressed files held in the server's buffer cache, with an optional
// disk model for uncached experiments.
//
// The store itself is a pure data structure; time costs (memory bandwidth,
// disk seeks) are charged by the protocol servers according to their own
// data paths, because that is exactly where DAFS and NFS differ.
package storage

import (
	"errors"
	"fmt"

	"dafsio/internal/sim"
)

// Store errors.
var (
	ErrNotFound  = errors.New("storage: file not found")
	ErrExists    = errors.New("storage: file exists")
	ErrBadHandle = errors.New("storage: stale file handle")
	// ErrObjectBound is a write or a size the store refuses because it
	// would reach past MaxObject (or, for a write, start before 0).
	ErrObjectBound = errors.New("storage: past the object-size bound")
)

// FileID is a persistent file handle.
type FileID uint64

// Store is a flat-namespace file store.
type Store struct {
	files map[string]*File
	byID  map[FileID]*File
	next  FileID
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{files: make(map[string]*File), byID: make(map[FileID]*File)}
}

// pageSize is the size of one buffer-cache page of a file.
const pageSize = 1 << 20

// MaxObject bounds a file's size: 1 TiB, far above any table's file (T18
// prefills 512 MB). The page index grows with the offset written, so
// WriteAt and Truncate refuse to reach past it, with ErrObjectBound,
// before any page is touched; the protocol servers answer that refusal
// with their invalid-argument status.
const MaxObject = 1 << 40

// Fits reports whether n bytes at off lie within [0, MaxObject].
func Fits(off, n int64) bool { return off >= 0 && n >= 0 && off <= MaxObject-n }

// indexRoom is how many pages a file's page index has room for when it
// first grows, so that files of up to 64 MB never regrow it.
const indexRoom = 64

// File is a byte-addressed file held in fixed pages of the buffer cache.
// A page is allocated the first time a write touches it and never moves;
// a nil page is a hole and reads as zeros.
type File struct {
	id    FileID
	name  string
	size  int64
	pages [][]byte // page i holds bytes [i*pageSize, (i+1)*pageSize)
}

// Create makes a new empty file. It fails with ErrExists if the name is
// taken.
func (s *Store) Create(name string) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty file name")
	}
	if _, ok := s.files[name]; ok {
		return nil, ErrExists
	}
	s.next++
	f := &File{id: s.next, name: name}
	s.files[name] = f
	s.byID[f.id] = f
	return f, nil
}

// Lookup finds a file by name.
func (s *Store) Lookup(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, ErrNotFound
	}
	return f, nil
}

// LookupBytes finds a file by a name held as bytes (a name in a request
// message), without copying them into a string.
func (s *Store) LookupBytes(name []byte) (*File, error) {
	f, ok := s.files[string(name)]
	if !ok {
		return nil, ErrNotFound
	}
	return f, nil
}

// Get finds a file by handle.
func (s *Store) Get(id FileID) (*File, error) {
	f, ok := s.byID[id]
	if !ok {
		return nil, ErrBadHandle
	}
	return f, nil
}

// Remove deletes a file by name. Existing handles become stale.
func (s *Store) Remove(name string) error {
	f, ok := s.files[name]
	if !ok {
		return ErrNotFound
	}
	delete(s.files, name)
	delete(s.byID, f.id)
	return nil
}

// ID returns the file's handle.
func (f *File) ID() FileID { return f.id }

// Pages returns how many buffer-cache pages the file holds.
//
//mpiolint:ignore reach test probe: TestObjectSizeBound in dafs and mpiio counts the pages a refused write leaves in the store
func (f *File) Pages() int {
	n := 0
	for _, pg := range f.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// ReadAt copies file content at off into b and returns the byte count; a
// read past EOF returns a short (possibly zero) count.
func (f *File) ReadAt(b []byte, off int64) int {
	if off < 0 || off >= f.size {
		return 0
	}
	b = b[:min(int64(len(b)), f.size-off)]
	for done := 0; done < len(b); {
		i, o := locate(off + int64(done))
		rest := b[done:min(len(b), done+pageSize-o)]
		if i < len(f.pages) && f.pages[i] != nil {
			copy(rest, f.pages[i][o:])
		} else {
			clear(rest)
		}
		done += len(rest)
	}
	return len(b)
}

// WriteAt stores b at off, growing the file as needed; the bytes between
// the old end and off read as zeros. A write that does not lie within
// [0, MaxObject] is refused whole with ErrObjectBound.
func (f *File) WriteAt(b []byte, off int64) (int, error) {
	if !Fits(off, int64(len(b))) {
		return 0, ErrObjectBound
	}
	for done := 0; done < len(b); {
		i, o := locate(off + int64(done))
		done += copy(f.page(i)[o:], b[done:])
	}
	f.size = max(f.size, off+int64(len(b)))
	return len(b), nil
}

// Truncate sets the file length; a negative length is 0. Growing only
// moves the end: the new range is a hole. Shrinking drops every page past
// the new end and clears the tail of the last page kept, so a later grow
// reads zeros there. A length past MaxObject is refused with
// ErrObjectBound, the file untouched.
func (f *File) Truncate(n int64) error {
	if n > MaxObject {
		return ErrObjectBound
	}
	n = max(n, 0)
	if n < f.size {
		keep := int((n + pageSize - 1) / pageSize)
		if keep < len(f.pages) {
			clear(f.pages[keep:])
			f.pages = f.pages[:keep]
		}
		if i, o := locate(n); o > 0 && i < len(f.pages) && f.pages[i] != nil {
			clear(f.pages[i][o:])
		}
	}
	f.size = n
	return nil
}

// locate splits a file offset into a page number and an offset in it.
func locate(off int64) (int, int) {
	return int(off / pageSize), int(off % pageSize)
}

// page returns page i, allocating it, and room for it in the index, on
// first touch.
func (f *File) page(i int) []byte {
	if i >= len(f.pages) {
		if f.pages == nil {
			f.pages = make([][]byte, 0, max(i+1, indexRoom))
		}
		f.pages = append(f.pages, make([][]byte, i+1-len(f.pages))...)
	}
	if f.pages[i] == nil {
		f.pages[i] = make([]byte, pageSize)
	}
	return f.pages[i]
}

// Disk models the backing spindle for uncached experiments: a single arm
// (FIFO) with a fixed positioning time and a streaming transfer rate.
// Sequential accesses (starting where the previous one ended) skip the
// positioning time, the way track-following and read-ahead do.
type Disk struct {
	arm     *sim.Resource
	seek    sim.Time
	bw      float64
	nextOff int64
	slow    float64 // service-time multiplier (fault injection; 0 means 1)
}

// NewDisk creates a disk.
func NewDisk(k *sim.Kernel, name string, seek sim.Time, bytesPerSec float64) *Disk {
	return &Disk{arm: sim.NewResource(k, name, 1), seek: seek, bw: bytesPerSec, nextOff: -1}
}

// SetSlowdown multiplies subsequent service times by f (>= 1); f <= 1
// restores full speed. Fault injection uses this to model a degraded
// spindle for a scheduled window.
func (d *Disk) SetSlowdown(f float64) {
	if f < 1 {
		f = 1
	}
	d.slow = f
}

// scaled applies the current slowdown to a service time.
func (d *Disk) scaled(t sim.Time) sim.Time {
	if d.slow > 1 {
		return sim.Time(float64(t) * d.slow)
	}
	return t
}

// Access occupies the disk for one positioning plus an n-byte transfer
// (always seeks: position unknown).
func (d *Disk) Access(p *sim.Proc, n int) {
	d.arm.Acquire(p, 1)
	d.nextOff = -1
	p.Wait(d.scaled(d.seek + sim.TransferTime(int64(n), d.bw)))
	d.arm.Release(1)
}

// AccessAt occupies the disk for an n-byte transfer at off, charging the
// positioning time only when the access is not sequential with the
// previous one.
func (d *Disk) AccessAt(p *sim.Proc, off int64, n int) {
	d.arm.Acquire(p, 1)
	t := sim.TransferTime(int64(n), d.bw)
	if off != d.nextOff {
		t += d.seek
	}
	d.nextOff = off + int64(n)
	p.Wait(d.scaled(t))
	d.arm.Release(1)
}

// BusyTime reports cumulative disk busy time.
func (d *Disk) BusyTime() sim.Time { return d.arm.BusyTime() }
