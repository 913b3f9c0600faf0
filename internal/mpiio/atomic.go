package mpiio

import "dafsio/internal/sim"

// Atomic mode (MPI_File_set_atomicity). With atomicity on, each data
// operation on the file executes under a file-wide mutual-exclusion lock,
// so concurrent overlapping accesses from different ranks serialize and
// each sees either all or none of another's write — the guarantee MPI
// requires and ROMIO implemented with fcntl locks on NFS. Collective I/O
// takes the same locked independent path: two-phase aggregation would
// apply the writers' pieces in a different order on each aggregator.
//
// The lock is held by the file service at rank 0 (service.go): acquire
// sends a request and blocks for the grant; release sends a message.

// SetAtomicity toggles atomic mode (collective: every rank must call it
// with the same flag).
//
//mpiolint:ignore reach MPI-2 API: MPI_File_set_atomicity
func (f *File) SetAtomicity(p *sim.Proc, on bool) error {
	if f.closed {
		return ErrClosed
	}
	f.atomic = on
	if !f.serial() {
		f.comm.Barrier(p)
	}
	return nil
}

// Atomicity reports whether atomic mode is on.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_get_atomicity
func (f *File) Atomicity() bool { return f.atomic }
