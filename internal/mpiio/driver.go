package mpiio

import (
	"errors"
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
)

// Open mode flags (MPI_MODE_*).
const (
	ModeRdOnly = 1 << iota
	ModeWrOnly
	ModeRdWr
	ModeCreate
	ModeExcl
	ModeDeleteOnClose
)

// Package errors.
var (
	ErrBadMode   = errors.New("mpiio: invalid open mode")
	ErrReadOnly  = errors.New("mpiio: file opened read-only")
	ErrWriteOnly = errors.New("mpiio: file opened write-only")
	ErrClosed    = errors.New("mpiio: file closed")
	ErrNegative  = errors.New("mpiio: negative offset or count")
	ErrNoEnt     = errors.New("mpiio: no such file")
	ErrExist     = errors.New("mpiio: file exists")
)

// mapErr translates a transport's error into the package's vocabulary.
// Everything else passes through wrapped, so dafs.ErrSession and friends
// still match.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, dafs.ErrNoEnt), errors.Is(err, nfs.ErrNoEnt):
		return ErrNoEnt
	case errors.Is(err, dafs.ErrExist), errors.Is(err, nfs.ErrExist), errors.Is(err, storage.ErrExists):
		return ErrExist
	default:
		return fmt.Errorf("mpiio: %w", err)
	}
}

func checkAccessMode(mode int) error {
	n := 0
	for _, m := range []int{ModeRdOnly, ModeWrOnly, ModeRdWr} {
		if mode&m != 0 {
			n++
		}
	}
	if n != 1 {
		return ErrBadMode
	}
	if mode&ModeRdOnly != 0 && mode&(ModeCreate|ModeExcl) != 0 {
		return ErrBadMode
	}
	return nil
}

// Driver is the ADIO-style transport abstraction: MPI-IO needs only
// contiguous and segment-list reads and writes plus a handful of control
// operations; all noncontiguous and collective cleverness lives above this
// line, exactly as in ROMIO. Every Driver is the striped dispatch core over
// one of its session leaves (DAFS, NFS, the local store): the interface is
// sealed, and the MPI-IO layer reads the layout, the tracer and whether the
// leaf has batch I/O from the core.
type Driver interface {
	// Node is the host the driver runs on; the MPI-IO layer charges its
	// pack/unpack/sieve copies to this CPU.
	Node() *fabric.Node
	// Open opens (optionally creating) a file.
	Open(p *sim.Proc, name string, mode int) (Handle, error)
	// Delete removes a file by name.
	Delete(p *sim.Proc, name string) error

	core() *striped
}

// Handle is one open file at the driver level: one start per access
// shape, each taking the direction as a flag.
type Handle interface {
	// Start begins a nonblocking contiguous transfer of buf at off: a
	// write extends the file as needed, a read counts short at EOF.
	Start(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error)
	// StartList begins a batched noncontiguous transfer (DAFS batch I/O:
	// one segment list and one RDMA per server). segs map to consecutive
	// bytes of buf, and the handle is done with segs once the call
	// returns, so a caller may reuse the slice. Over a leaf without batch
	// I/O it fails; Open sets Hints.NoBatch there.
	StartList(p *sim.Proc, segs []Segment, buf []byte, write bool) (AsyncOp, error)
	// Size returns the current file size.
	Size(p *sim.Proc) (int64, error)
	// Resize truncates or extends the file.
	Resize(p *sim.Proc, n int64) error
	// Sync commits written data.
	Sync(p *sim.Proc) error
	// Close releases the handle.
	Close(p *sim.Proc) error
}

// AsyncOp is an in-flight driver operation. It is waited exactly once: a
// driver may recycle the op once Wait returns, so a second Wait, or any use
// of the op after the first, is a bug. A read whose Wait fails leaves its
// buffer's contents undefined, as MPI does: part of it may have been
// delivered.
type AsyncOp interface {
	Wait(p *sim.Proc) (int, error)
}

// starter is what transfer drives: a Handle, or a rank object under the
// re-silverer.
type starter interface {
	Start(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error)
}

// transfer starts a contiguous transfer and waits for it.
func transfer(p *sim.Proc, h starter, off int64, buf []byte, write bool) (int, error) {
	op, err := h.Start(p, off, buf, write)
	if err != nil {
		return 0, err
	}
	return op.Wait(p)
}

// doneOp is an AsyncOp that completed inside its start, with its value:
// the bytes a zero-length transfer or a rank object's copy moved, or what
// a synchronous session leaf returned.
type doneOp int

// Wait implements AsyncOp.
func (o doneOp) Wait(*sim.Proc) (int, error) { return int(o), nil }
