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

// File is a byte-addressed file.
type File struct {
	id   FileID
	name string
	data []byte
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

// Len returns the number of files.
func (s *Store) Len() int { return len(s.files) }

// ID returns the file's handle.
func (f *File) ID() FileID { return f.id }

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// ReadAt copies file content at off into b and returns the byte count; a
// read past EOF returns a short (possibly zero) count.
func (f *File) ReadAt(b []byte, off int64) int {
	if off < 0 || off >= int64(len(f.data)) {
		return 0
	}
	return copy(b, f.data[off:])
}

// WriteAt stores b at off, growing (zero-filling) the file as needed.
func (f *File) WriteAt(b []byte, off int64) int {
	if off < 0 {
		return 0
	}
	end := off + int64(len(b))
	f.ensure(end)
	return copy(f.data[off:], b)
}

// Truncate sets the file length, growing with zeros or discarding the tail.
func (f *File) Truncate(n int64) {
	if n < 0 {
		n = 0
	}
	if int64(len(f.data)) >= n {
		clear(f.data[n:]) // keep the spare capacity zero for the next grow
		f.data = f.data[:n]
		return
	}
	f.ensure(n)
}

// ensure grows the file to at least n bytes. Capacity at least doubles
// whenever the object has to move, so appending n bytes in any number of
// calls allocates O(n) bytes in O(log n) moves instead of recopying the
// whole object per call. Bytes between length and capacity are always zero
// (a fresh allocation is, and Truncate clears what it cuts off), so growing
// within capacity is a reslice.
func (f *File) ensure(n int64) {
	if int64(len(f.data)) >= n {
		return
	}
	if int64(cap(f.data)) < n {
		grown := make([]byte, n, max(n, 2*int64(cap(f.data))))
		copy(grown, f.data)
		f.data = grown
		return
	}
	f.data = f.data[:n]
}

// Slice exposes the file's bytes in [off, off+n) for zero-copy transfer
// (the server's pre-registered buffer cache). The range must be in bounds.
// The result aliases the object as it is now: it keeps seeing writes until
// a grow past capacity moves the object, after which it is a snapshot of
// the old pages. Its own range never changes under an append either way.
func (f *File) Slice(off int64, n int) []byte {
	return f.data[:len(f.data):len(f.data)][off : off+int64(n)] // bounds are the length, not the spare capacity
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
