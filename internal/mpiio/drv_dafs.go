package mpiio

import (
	"errors"
	"reflect"

	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// DAFSDriver binds MPI-IO to a DAFS session. Its two policies are the ones
// the paper's implementation section is about:
//
//   - Transfer discipline: requests up to DirectThreshold bytes go inline
//     (data inside the message, one copy per end); larger requests use
//     direct I/O (server-driven RDMA into registered client memory).
//   - Registration cache: direct I/O needs the user buffer registered with
//     the NIC, which costs real CPU time; the driver caches registrations
//     keyed by buffer address so repeated I/O from the same buffers (the
//     common MPI pattern) pays the pinning cost once.
type DAFSDriver struct {
	client *dafs.Client

	// DirectThreshold is the largest request served inline. It defaults
	// to the session's MaxInline and may be lowered for ablations.
	DirectThreshold int
	// RegCache enables the registration cache (default on).
	RegCache bool

	cache    map[uintptr]*regEntry
	order    []uintptr
	cacheCap int

	// Stats.
	RegHits, RegMisses int64
}

type regEntry struct {
	reg *via.Region
	n   int
}

// NewDAFSDriver wraps an established DAFS session.
func NewDAFSDriver(client *dafs.Client) *DAFSDriver {
	return &DAFSDriver{
		client:          client,
		DirectThreshold: client.MaxInline(),
		RegCache:        true,
		cache:           make(map[uintptr]*regEntry),
		cacheCap:        64,
	}
}

// Client returns the underlying session.
func (d *DAFSDriver) Client() *dafs.Client { return d.client }

// Tracer returns the tracer the driver's session records to (nil when
// tracing is off). The MPI-IO layer uses it to open per-operation spans.
func (d *DAFSDriver) Tracer() *trace.Tracer { return d.client.Tracer() }

// Name implements Driver.
func (d *DAFSDriver) Name() string { return "dafs" }

// Delete implements Driver.
func (d *DAFSDriver) Delete(p *sim.Proc, name string) error {
	return mapErr(d.client.Remove(p, name))
}

// Open implements Driver.
func (d *DAFSDriver) Open(p *sim.Proc, name string, mode int) (Handle, error) {
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
	case errors.Is(err, dafs.ErrNoEnt) && mode&ModeCreate != 0:
		fh, _, err = c.Create(p, name)
		if err != nil {
			return nil, mapErr(err)
		}
	default:
		return nil, mapErr(err)
	}
	return &dafsHandle{drv: d, fh: fh, openFile: openFile{name: name, mode: mode}}, nil
}

// region returns a registration covering buf, from the cache when enabled.
func (d *DAFSDriver) region(p *sim.Proc, buf []byte) *via.Region {
	nic := d.client.NIC()
	if !d.RegCache {
		return nic.Register(p, buf)
	}
	key := reflect.ValueOf(buf).Pointer()
	if e, ok := d.cache[key]; ok && e.n >= len(buf) && e.reg.Valid() {
		d.RegHits++
		return e.reg
	} else if ok {
		nic.Deregister(p, e.reg)
		delete(d.cache, key)
		for i, k := range d.order {
			if k == key {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	d.RegMisses++
	if len(d.order) >= d.cacheCap {
		victim := d.order[0]
		d.order = d.order[1:]
		if e := d.cache[victim]; e != nil {
			nic.Deregister(p, e.reg)
		}
		delete(d.cache, victim)
	}
	reg := nic.Register(p, buf)
	d.cache[key] = &regEntry{reg: reg, n: len(buf)}
	d.order = append(d.order, key)
	return reg
}

// release returns a registration obtained from region; with the cache on it
// stays pinned for reuse.
func (d *DAFSDriver) release(p *sim.Proc, reg *via.Region) {
	if !d.RegCache {
		d.client.NIC().Deregister(p, reg)
	}
}

type dafsHandle struct {
	drv *DAFSDriver
	fh  dafs.FH
	openFile
}

// ReadContig implements Handle.
func (h *dafsHandle) ReadContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartRead(p, off, buf)
	return blocking(p, op, err)
}

// WriteContig implements Handle.
func (h *dafsHandle) WriteContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartWrite(p, off, buf)
	return blocking(p, op, err)
}

// dafsOp adapts a dafs.IO (plus optional registration release).
type dafsOp struct {
	io  *dafs.IO
	drv *DAFSDriver
	reg *via.Region
}

// Wait implements AsyncOp.
func (o *dafsOp) Wait(p *sim.Proc) (int, error) {
	n, err := o.io.Wait(p)
	if o.reg != nil {
		o.drv.release(p, o.reg)
	}
	return n, mapErr(err)
}

// startIO issues one contiguous transfer on session c under the driver's
// transfer discipline: inline up to DirectThreshold, direct above it, as
// RDMA against reg[regOff:regOff+len(buf)]. It is the one place the
// package chooses between the two — the unstriped handle, every stripe
// fragment and the re-silverer's chunk copies all issue through it. The
// caller owns reg, which may be nil when buf goes inline.
func (d *DAFSDriver) startIO(p *sim.Proc, c *dafs.Client, fh dafs.FH, off int64, buf []byte, reg *via.Region, regOff int, write bool) (*dafs.IO, error) {
	switch inline := len(buf) <= d.DirectThreshold; {
	case inline && write:
		return c.StartWrite(p, fh, off, buf)
	case inline:
		return c.StartRead(p, fh, off, buf)
	case write:
		return c.StartWriteDirect(p, fh, off, reg, regOff, len(buf))
	default:
		return c.StartReadDirect(p, fh, off, reg, regOff, len(buf))
	}
}

// start issues one nonblocking contiguous transfer, registering buf
// (through the cache) when it is too large to go inline.
func (h *dafsHandle) start(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error) {
	if err := h.check(off, write); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	d := h.drv
	var reg *via.Region
	if len(buf) > d.DirectThreshold {
		reg = d.region(p, buf)
	}
	io, err := d.startIO(p, d.client, h.fh, off, buf, reg, 0, write)
	if err != nil {
		if reg != nil {
			d.release(p, reg)
		}
		return nil, mapErr(err)
	}
	return &dafsOp{io: io, drv: d, reg: reg}, nil
}

// StartRead implements Handle.
func (h *dafsHandle) StartRead(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	return h.start(p, off, buf, false)
}

// StartWrite implements Handle.
func (h *dafsHandle) StartWrite(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	return h.start(p, off, buf, true)
}

// dafsBatch is an in-flight segment list: one DAFS batch request per chunk
// of the session's batch capacity.
type dafsBatch []*dafs.IO

// wait drains every chunk (each completion recycles a session credit) and
// returns the bytes moved up to the first failure.
func (b dafsBatch) wait(p *sim.Proc) (int64, error) {
	total := 0
	var firstErr error
	for _, io := range b {
		n, err := io.Wait(p)
		if firstErr == nil {
			total += n
			firstErr = err
		}
	}
	return int64(total), firstErr
}

// startBatch issues a segment list against one object on session c: each
// chunk of up to MaxBatch segments moves with a single request plus a
// single RDMA, and the segments occupy consecutive bytes of reg from
// offset 0. It is the package's one batch chunker, under the unstriped
// list path and every per-server gather plan. When a chunk fails to start
// the ones already in flight are waited out before the error returns.
func startBatch(p *sim.Proc, c *dafs.Client, fh dafs.FH, specs []dafs.SegSpec, reg *via.Region, write bool) (dafsBatch, error) {
	var b dafsBatch
	for regOff := 0; len(specs) > 0; {
		chunk := specs[:min(len(specs), c.MaxBatch())]
		var io *dafs.IO
		var err error
		if write {
			io, err = c.StartWriteBatch(p, fh, chunk, reg, regOff)
		} else {
			io, err = c.StartReadBatch(p, fh, chunk, reg, regOff)
		}
		if err != nil {
			b.wait(p)
			return nil, err
		}
		b = append(b, io)
		for _, s := range chunk {
			regOff += s.Len
		}
		specs = specs[len(chunk):]
	}
	return b, nil
}

// listOp is an unstriped batch transfer straight out of (or into) the
// user buffer; its registration is released once the last chunk is in.
type listOp struct {
	b   dafsBatch
	drv *DAFSDriver
	reg *via.Region
}

// Wait implements AsyncOp.
func (o *listOp) Wait(p *sim.Proc) (int, error) {
	n, err := o.b.wait(p)
	o.drv.release(p, o.reg)
	return int(n), mapErr(err)
}

// startList issues segs — consecutive bytes of buf — as batch operations
// on session c: the whole buffer is registered once (through the cache).
// The striped driver's width-1 list path delegates here, so the unstriped
// tables stay its stripes=1 special case.
func (d *DAFSDriver) startList(p *sim.Proc, c *dafs.Client, fh dafs.FH, segs []Segment, buf []byte, write bool) (AsyncOp, error) {
	reg := d.region(p, buf)
	specs := make([]dafs.SegSpec, len(segs))
	for i, s := range segs {
		specs[i] = dafs.SegSpec{Off: s.Off, Len: int(s.Len)}
	}
	b, err := startBatch(p, c, fh, specs, reg, write)
	if err != nil {
		d.release(p, reg)
		return nil, mapErr(err)
	}
	return &listOp{b: b, drv: d, reg: reg}, nil
}

// startList implements both directions of ListHandle.
func (h *dafsHandle) startList(p *sim.Proc, segs []Segment, buf []byte, write bool) (AsyncOp, error) {
	if err := h.check(0, write); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	return h.drv.startList(p, h.drv.client, h.fh, segs, buf, write)
}

// StartReadList implements ListHandle via DAFS batch reads.
func (h *dafsHandle) StartReadList(p *sim.Proc, segs []Segment, buf []byte) (AsyncOp, error) {
	return h.startList(p, segs, buf, false)
}

// StartWriteList implements ListHandle via DAFS batch writes.
func (h *dafsHandle) StartWriteList(p *sim.Proc, segs []Segment, buf []byte) (AsyncOp, error) {
	return h.startList(p, segs, buf, true)
}

// Size implements Handle.
func (h *dafsHandle) Size(p *sim.Proc) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	attr, err := h.drv.client.Getattr(p, h.fh)
	return attr.Size, mapErr(err)
}

// Resize implements Handle.
func (h *dafsHandle) Resize(p *sim.Proc, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	return mapErr(h.drv.client.Setattr(p, h.fh, n))
}

// Sync implements Handle.
func (h *dafsHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	return mapErr(h.drv.client.Fsync(p, h.fh))
}

// Close implements Handle.
func (h *dafsHandle) Close(p *sim.Proc) error {
	return h.close(p, h.drv)
}

// Node implements Driver.
func (d *DAFSDriver) Node() *fabric.Node { return d.client.Node() }
