package mpiio

import (
	"unsafe"

	"dafsio/internal/dafs"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// dafsTransfer is how the DAFS leaf of the striped driver moves bytes, on
// one server or many. Its two policies are the ones the paper's
// implementation section is about:
//
//   - Transfer discipline: requests up to DirectThreshold bytes go inline
//     (data inside the message, one copy per end); larger requests use
//     direct I/O (server-driven RDMA into registered client memory).
//   - Registration cache: direct I/O needs the user buffer registered with
//     the NIC, which costs real CPU time; the cache keys registrations by
//     buffer address so repeated I/O from the same buffers (the common MPI
//     pattern) pays the pinning cost once.
//
// One value serves a whole session pool: every session shares the
// client's NIC, so one registration covers every per-server fragment of a
// request. Its exported fields are promoted to StripedDAFSDriver.
type dafsTransfer struct {
	nic *via.NIC

	// DirectThreshold is the largest request served inline. It defaults
	// to the smallest MaxInline of the pool's sessions and may be lowered
	// for ablations.
	DirectThreshold int
	// RegCache enables the registration cache (default on).
	RegCache bool

	cache    map[*byte]*regEntry // keyed by the buffer's address
	order    []*byte
	cacheCap int

	freeBatch []*batchOp // waited batch ops, for reuse

	// Stats.
	RegHits, RegMisses int64
}

type regEntry struct {
	reg *via.Region
	n   int
}

func newDAFSTransfer(nic *via.NIC, threshold int) *dafsTransfer {
	return &dafsTransfer{
		nic:             nic,
		DirectThreshold: threshold,
		RegCache:        true,
		cache:           make(map[*byte]*regEntry),
		cacheCap:        64,
	}
}

// region returns a registration covering buf, from the cache when enabled.
func (d *dafsTransfer) region(p *sim.Proc, buf []byte) *via.Region {
	if !d.RegCache {
		return d.nic.Register(p, buf)
	}
	key := unsafe.SliceData(buf)
	if e, ok := d.cache[key]; ok && e.n >= len(buf) && e.reg.Valid() {
		d.RegHits++
		return e.reg
	} else if ok {
		d.nic.Deregister(p, e.reg)
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
			d.nic.Deregister(p, e.reg)
		}
		delete(d.cache, victim)
	}
	reg := d.nic.Register(p, buf)
	d.cache[key] = &regEntry{reg: reg, n: len(buf)}
	d.order = append(d.order, key)
	return reg
}

// release returns a registration obtained from region; with the cache on it
// stays pinned for reuse.
func (d *dafsTransfer) release(p *sim.Proc, reg *via.Region) {
	if !d.RegCache {
		d.nic.Deregister(p, reg)
	}
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
// offset 0. It is the package's one batch chunker, under every server
// plan of a list transfer. The chunks are in flight as one op, whose Wait
// drains every chunk (each completion recycles a session credit). When a
// chunk fails to start the ones already in flight are waited out before
// the error returns.
func (d *dafsTransfer) startBatch(p *sim.Proc, c *dafs.Client, fh dafs.FH, specs []dafs.SegSpec, reg *via.Region, write bool) (AsyncOp, error) {
	o := d.newBatchOp()
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
