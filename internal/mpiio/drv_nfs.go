package mpiio

import (
	"errors"

	"dafsio/internal/fabric"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
)

// NFSDriver binds MPI-IO to an NFS mount — the paper's baseline transport.
// Transfers are chunked to the mount's rsize/wsize and pipelined by the NFS
// client; every byte crosses the kernel stack on both ends.
type NFSDriver struct {
	client *nfs.Client
}

// NewNFSDriver wraps an established mount.
func NewNFSDriver(client *nfs.Client) *NFSDriver {
	return &NFSDriver{client: client}
}

// Client returns the underlying mount.
func (d *NFSDriver) Client() *nfs.Client { return d.client }

// Name implements Driver.
func (d *NFSDriver) Name() string { return "nfs" }

// Delete implements Driver.
func (d *NFSDriver) Delete(p *sim.Proc, name string) error {
	return mapErr(d.client.Remove(p, name))
}

// Open implements Driver.
func (d *NFSDriver) Open(p *sim.Proc, name string, mode int) (Handle, error) {
	if err := checkAccessMode(mode); err != nil {
		return nil, err
	}
	c := d.client
	fh, _, err := c.Lookup(p, name)
	switch {
	case err == nil:
		if mode&ModeExcl != 0 {
			return nil, ErrExist
		}
	case errors.Is(err, nfs.ErrNoEnt) && mode&ModeCreate != 0:
		fh, _, err = c.Create(p, name)
		if err != nil {
			return nil, mapErr(err)
		}
	default:
		return nil, mapErr(err)
	}
	return &nfsHandle{drv: d, fh: fh, openFile: openFile{name: name, mode: mode}}, nil
}

type nfsHandle struct {
	drv *NFSDriver
	fh  nfs.FH
	openFile
}

type nfsOp struct{ io *nfs.IO }

// Wait implements AsyncOp.
func (o nfsOp) Wait(p *sim.Proc) (int, error) {
	n, err := o.io.Wait(p)
	return n, mapErr(err)
}

// StartRead implements Handle.
func (h *nfsHandle) StartRead(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	if err := h.check(off, false); err != nil {
		return nil, err
	}
	io, err := h.drv.client.StartRead(p, h.fh, off, buf)
	if err != nil {
		return nil, mapErr(err)
	}
	return nfsOp{io: io}, nil
}

// StartWrite implements Handle.
func (h *nfsHandle) StartWrite(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	if err := h.check(off, true); err != nil {
		return nil, err
	}
	io, err := h.drv.client.StartWrite(p, h.fh, off, buf)
	if err != nil {
		return nil, mapErr(err)
	}
	return nfsOp{io: io}, nil
}

// ReadContig implements Handle.
func (h *nfsHandle) ReadContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartRead(p, off, buf)
	return blocking(p, op, err)
}

// WriteContig implements Handle.
func (h *nfsHandle) WriteContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartWrite(p, off, buf)
	return blocking(p, op, err)
}

// Size implements Handle.
func (h *nfsHandle) Size(p *sim.Proc) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	attr, err := h.drv.client.Getattr(p, h.fh)
	return attr.Size, mapErr(err)
}

// Resize implements Handle.
func (h *nfsHandle) Resize(p *sim.Proc, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	return mapErr(h.drv.client.Setattr(p, h.fh, n))
}

// Sync implements Handle.
func (h *nfsHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	return mapErr(h.drv.client.Commit(p, h.fh))
}

// Close implements Handle.
func (h *nfsHandle) Close(p *sim.Proc) error {
	return h.close(p, h.drv)
}

// Node implements Driver.
func (d *NFSDriver) Node() *fabric.Node { return d.client.Node() }
