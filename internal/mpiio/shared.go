package mpiio

import "dafsio/internal/sim"

// Shared file pointer support (MPI_File_read/write_shared and the ordered
// collectives). One pointer per open file is shared by every rank of the
// world; it advances in view data-space bytes, like the individual
// pointer. The file service at rank 0 (service.go) holds it: independent
// shared operations perform an atomic fetch-and-add against it, and
// ordered collectives compute rank-order offsets with one prefix sum and a
// single fetch-and-add.

// ReadShared reads at the shared file pointer and atomically advances it
// (MPI_File_read_shared). Concurrent callers get disjoint regions; the
// ordering among them is unspecified, as in MPI.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_read_shared
func (f *File) ReadShared(p *sim.Proc, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	off := f.spCall(p, svcFetchAdd, int64(len(buf)))
	return f.ReadAt(p, off, buf)
}

// WriteShared writes at the shared file pointer and atomically advances it
// (MPI_File_write_shared).
func (f *File) WriteShared(p *sim.Proc, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	off := f.spCall(p, svcFetchAdd, int64(len(buf)))
	return f.WriteAt(p, off, buf)
}

// SeekShared repositions the shared pointer (collective; every rank must
// call it with the same offset, per the MPI standard).
//
//mpiolint:ignore reach MPI-2 API: MPI_File_seek_shared
func (f *File) SeekShared(p *sim.Proc, off int64) error {
	if f.closed {
		return ErrClosed
	}
	if off < 0 {
		return ErrNegative
	}
	if f.svc == nil {
		f.sharedPtr = off
		return nil
	}
	if f.rank.ID() == 0 {
		f.spCall(p, svcSet, off)
	}
	f.rank.Barrier(p)
	return nil
}

// orderedOffsets computes this rank's offset for an ordered collective:
// the ranks' buffers are placed in rank order starting at the shared
// pointer, which advances by the total.
func (f *File) orderedOffsets(p *sim.Proc, n int) int64 {
	if f.svc == nil {
		return f.spCall(p, svcFetchAdd, int64(n))
	}
	r := f.rank
	sizes := r.AllgatherU64(p, uint64(n))
	var prefix, total int64
	for i, s := range sizes {
		if i < r.ID() {
			prefix += int64(s)
		}
		total += int64(s)
	}
	var base uint64
	if r.ID() == 0 {
		base = uint64(f.spCall(p, svcFetchAdd, total))
	}
	base = r.BcastU64(p, 0, base)
	return int64(base) + prefix
}

// WriteOrdered is the collective MPI_File_write_ordered: every rank's
// buffer lands in rank order at the shared pointer.
func (f *File) WriteOrdered(p *sim.Proc, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	off := f.orderedOffsets(p, len(buf))
	return f.WriteAt(p, off, buf)
}

// ReadOrdered is the collective MPI_File_read_ordered.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_read_ordered
func (f *File) ReadOrdered(p *sim.Proc, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	off := f.orderedOffsets(p, len(buf))
	return f.ReadAt(p, off, buf)
}
