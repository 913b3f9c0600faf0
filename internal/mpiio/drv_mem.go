package mpiio

import (
	"fmt"

	"dafsio/internal/fabric"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
)

// MemDriver is the local reference driver: a node-local file system backed
// by a storage.Store. It charges the caller a syscall per operation and a
// memory copy per byte (a warm local file system), making it the
// lowest-latency — but not network-attached — point of comparison.
type MemDriver struct {
	node  *fabric.Node
	store *storage.Store
	disk  *storage.Disk // optional
}

// NewMemDriver creates a local driver on node over store. disk may be nil
// (cached).
func NewMemDriver(node *fabric.Node, store *storage.Store, disk *storage.Disk) *MemDriver {
	return &MemDriver{node: node, store: store, disk: disk}
}

// Name implements Driver.
func (d *MemDriver) Name() string { return "mem" }

// Delete implements Driver.
func (d *MemDriver) Delete(p *sim.Proc, name string) error {
	d.node.Compute(p, d.node.Profile().SyscallCost)
	if err := d.store.Remove(name); err != nil {
		return mapStorageErr(err)
	}
	return nil
}

// Open implements Driver.
func (d *MemDriver) Open(p *sim.Proc, name string, mode int) (Handle, error) {
	if err := checkAccessMode(mode); err != nil {
		return nil, err
	}
	d.node.Compute(p, d.node.Profile().SyscallCost)
	f, err := d.store.Lookup(name)
	switch {
	case err == nil:
		if mode&ModeExcl != 0 {
			return nil, ErrExist
		}
	case err == storage.ErrNotFound && mode&ModeCreate != 0:
		f, err = d.store.Create(name)
		if err != nil {
			return nil, mapStorageErr(err)
		}
	default:
		return nil, mapStorageErr(err)
	}
	return &memHandle{drv: d, f: f, openFile: openFile{name: name, mode: mode}}, nil
}

func mapStorageErr(err error) error {
	switch err {
	case storage.ErrNotFound:
		return ErrNoEnt
	case storage.ErrExists:
		return ErrExist
	default:
		return fmt.Errorf("mpiio: storage: %w", err)
	}
}

type memHandle struct {
	drv *MemDriver
	f   *storage.File
	openFile
}

func (h *memHandle) charge(p *sim.Proc, n int) {
	prof := h.drv.node.Profile()
	h.drv.node.Compute(p, prof.SyscallCost)
	h.drv.node.CopyMem(p, n)
	if h.drv.disk != nil && n > 0 {
		h.drv.disk.Access(p, n)
	}
}

// ReadContig implements Handle.
func (h *memHandle) ReadContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	if err := h.check(off, false); err != nil {
		return 0, err
	}
	n := h.f.ReadAt(buf, off)
	h.charge(p, n)
	return n, nil
}

// WriteContig implements Handle.
func (h *memHandle) WriteContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	if err := h.check(off, true); err != nil {
		return 0, err
	}
	n := h.f.WriteAt(buf, off)
	h.charge(p, n)
	return n, nil
}

// StartRead implements Handle.
func (h *memHandle) StartRead(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	n, err := h.ReadContig(p, off, buf) // local I/O completes synchronously
	return doneOp{n: n, err: err}, nil
}

// StartWrite implements Handle.
func (h *memHandle) StartWrite(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	n, err := h.WriteContig(p, off, buf)
	return doneOp{n: n, err: err}, nil
}

// Size implements Handle.
func (h *memHandle) Size(p *sim.Proc) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	h.drv.node.Compute(p, h.drv.node.Profile().SyscallCost)
	return h.f.Size(), nil
}

// Resize implements Handle.
func (h *memHandle) Resize(p *sim.Proc, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	h.drv.node.Compute(p, h.drv.node.Profile().SyscallCost)
	h.f.Truncate(n)
	return nil
}

// Sync implements Handle.
func (h *memHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	h.drv.node.Compute(p, h.drv.node.Profile().SyscallCost)
	if h.drv.disk != nil {
		h.drv.disk.Access(p, 0)
	}
	return nil
}

// Close implements Handle.
func (h *memHandle) Close(p *sim.Proc) error {
	if h.closed {
		return nil
	}
	h.drv.node.Compute(p, h.drv.node.Profile().SyscallCost)
	return h.close(p, h.drv)
}

// Node implements Driver.
func (d *MemDriver) Node() *fabric.Node { return d.node }
