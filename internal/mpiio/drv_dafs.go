package mpiio

import (
	"dafsio/internal/dafs"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// dafsTransfer is how the DAFS leaf of the striped driver moves bytes, on
// one server or many: the paper's transfer discipline. Requests up to
// DirectThreshold bytes go inline (data inside the message, one copy per
// end); larger requests use direct I/O (server-driven RDMA into client
// memory the NIC's pin-down cache has registered, via.NIC.Pin).
//
// One value serves a whole session pool. Its exported field is promoted
// to StripedDAFSDriver.
type dafsTransfer struct {
	// DirectThreshold is the largest request served inline. It defaults
	// to the smallest MaxInline of the pool's sessions and may be lowered
	// for ablations.
	DirectThreshold int

	freeBatch []*batchOp // waited batch ops, for reuse
}

// startIO issues one contiguous transfer on session c under the transfer
// discipline: inline up to DirectThreshold, direct above it, as RDMA
// against reg[regOff:regOff+len(buf)]. It is the one place the package
// chooses between the two — every stripe fragment and the re-silverer's
// chunk copies issue through it. The caller owns reg, which may be nil
// when buf goes inline.
func (d *dafsTransfer) startIO(p *sim.Proc, c *dafs.Client, fh dafs.FH, off int64, buf []byte, reg *via.Region, regOff int, write bool) (*dafs.IO, error) {
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

// startBatch issues a segment list against one object on session c: each
// chunk of up to MaxBatch segments moves with a single request plus a
// single RDMA, and the segments occupy consecutive bytes of reg from
// regOff. It is the package's one batch chunker, under every server
// plan of a list transfer. The chunks are in flight as one op, whose Wait
// drains every chunk (each completion recycles a session credit). When a
// chunk fails to start the ones already in flight are waited out before
// the error returns.
func (d *dafsTransfer) startBatch(p *sim.Proc, c *dafs.Client, fh dafs.FH, specs []dafs.SegSpec, reg *via.Region, regOff int, write bool) (AsyncOp, error) {
	o := d.newBatchOp()
	for len(specs) > 0 {
		chunk := specs[:min(len(specs), c.MaxBatch())]
		var io *dafs.IO
		var err error
		if write {
			io, err = c.StartWriteBatch(p, fh, chunk, reg, regOff)
		} else {
			io, err = c.StartReadBatch(p, fh, chunk, reg, regOff)
		}
		if err != nil {
			o.Wait(p)
			return nil, err
		}
		o.ios = append(o.ios, io)
		for _, s := range chunk {
			regOff += s.Len
		}
		specs = specs[len(chunk):]
	}
	return o, nil
}

// batchOp is one segment list's chunks in flight, waited as one. Wait
// hands it back to the transfer's free list with its chunk table, so a
// list transfer of a steady shape issues its chunks without allocating.
type batchOp struct {
	d   *dafsTransfer
	ios []AsyncOp
}

// newBatchOp takes an op from the free list, or makes one.
func (d *dafsTransfer) newBatchOp() *batchOp {
	if n := len(d.freeBatch); n > 0 {
		o := d.freeBatch[n-1]
		d.freeBatch = d.freeBatch[:n-1]
		return o
	}
	return &batchOp{d: d}
}

// Wait implements AsyncOp: the bytes every chunk moved up to the first
// failure, and that failure.
func (o *batchOp) Wait(p *sim.Proc) (int, error) {
	n, err := waitAll(p, o.ios, nil)
	clear(o.ios)
	o.ios = o.ios[:0]
	o.d.freeBatch = append(o.d.freeBatch, o)
	return n, err
}
