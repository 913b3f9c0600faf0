package dafs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// replyProcs are the procs of the client's Start methods, in the order
// FuzzClientReply issues them.
var replyProcs = []Proc{
	ProcLookup, ProcCreate, ProcRemove, ProcGetattr, ProcSetattr, ProcFsync,
	ProcRead, ProcWrite, ProcReadDirect, ProcWriteDirect, ProcReadBatch, ProcWriteBatch,
}

// validReply is the body a server answers proc with when it succeeds.
func validReply(proc Proc) []byte {
	le := binary.LittleEndian
	switch proc {
	case ProcLookup, ProcCreate:
		return le.AppendUint64(le.AppendUint64(nil, 7), 64) // handle, size
	case ProcGetattr:
		return le.AppendUint64(nil, 64)
	case ProcRead:
		return append(le.AppendUint32(nil, 3), "abc"...)
	case ProcWrite, ProcReadDirect, ProcWriteDirect, ProcReadBatch, ProcWriteBatch:
		return le.AppendUint32(nil, 32)
	}
	return nil // Remove, Setattr, Fsync
}

// scriptPeer replaces the rig server's request handling with a scripted
// peer on the server session's VI: it answers CONNECT and DISCONNECT as a
// server does, and every other request with status st and body.
func scriptPeer(t *testing.T, r *rig, st Status, body []byte) {
	r.srv.cq = r.srv.NIC().NewNotifyCQ("peer.cq", func(p *sim.Proc, comp via.Completion) {
		switch ctx := comp.Desc.Ctx.(type) {
		case *reqSlot:
			if comp.Err != nil {
				return
			}
			sess := ctx.sess
			hdr, err := decodeHeader(ctx.bytes()[:comp.Len])
			ctx.release(comp.Len)
			if err != nil {
				t.Errorf("peer got an undecodable request: %v", err)
				return
			}
			if err := sess.vi.PostRecv(p, &ctx.desc); err != nil {
				return
			}
			rst, rbody := st, body
			switch hdr.Proc {
			case ProcConnect:
				le := binary.LittleEndian
				rst, rbody = StatusOK, le.AppendUint32(le.AppendUint16(nil, credits), uint32(sess.maxInline))
			case ProcDisconnect:
				rst, rbody = StatusOK, nil
			}
			rbody = rbody[:min(len(rbody), sess.slotSize-HeaderLen)] // a reply fills one slot at most
			rs := sess.respPool.get(p)
			n := HeaderLen + len(rbody)
			msg := rs.reg.Grow(rs.i, n)
			encodeHeader(msg, Header{Proc: hdr.Proc, XID: hdr.XID, Status: rst, BodyLen: uint32(len(rbody))})
			copy(msg[HeaderLen:], rbody)
			rs.desc = via.Descriptor{Op: via.OpSend, Region: rs.reg, Offset: rs.i * sess.slotSize, Len: n, Ctx: rs}
			if err := sess.vi.PostSend(p, &rs.desc); err != nil {
				rs.release(n)
				sess.respPool.put(rs)
			}
		case *respSlot:
			ctx.release(comp.Desc.Len)
			ctx.sess.respPool.put(ctx)
		}
	})
}

// FuzzClientReply: whatever status and body a peer answers a request
// with, the client's Start and Wait return a value or an error and never
// panic, and once the session is closed, failed or not, the client NIC
// holds no registration of it and the provider's pool no message bytes.
// The peer answers CONNECT correctly, then one request of each proc with
// the fuzzed reply.
func FuzzClientReply(f *testing.F) {
	for _, proc := range replyProcs {
		f.Add(uint16(StatusOK), validReply(proc))
	}
	f.Add(uint16(StatusOK), []byte{})        // an empty body
	f.Add(uint16(StatusOK), []byte{1, 2, 3}) // a body short of every value
	f.Add(uint16(0xbeef), []byte{})          // an unknown status
	f.Fuzz(func(t *testing.T, status uint16, body []byte) {
		r := newRig(1)
		defer r.k.Shutdown()
		scriptPeer(t, r, Status(status), body)
		r.k.Spawn("app", func(p *sim.Proc) {
			nic := r.cNICs[0]
			regions, mem := nic.Regions(), r.prov.RingMem()
			c, err := Dial(p, nic, r.srv, nil)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			buf := make([]byte, 64)
			reg := nic.Register(p, buf)
			segs := []SegSpec{{Off: 0, Len: 32}, {Off: 100, Len: 32}}
			fh := FH(7)
			for _, proc := range replyProcs {
				var io *IO
				switch proc {
				case ProcLookup:
					io, err = c.StartLookup(p, "f")
				case ProcCreate:
					io, err = c.StartCreate(p, "f")
				case ProcRemove:
					io, err = c.StartRemove(p, "f")
				case ProcGetattr:
					io, err = c.StartGetattr(p, fh)
				case ProcSetattr:
					io, err = c.StartSetattr(p, fh, 64)
				case ProcFsync:
					io, err = c.StartFsync(p, fh)
				case ProcRead:
					io, err = c.StartRead(p, fh, 0, buf)
				case ProcWrite:
					io, err = c.StartWrite(p, fh, 0, buf)
				case ProcReadDirect:
					io, err = c.StartReadDirect(p, fh, 0, reg, 0, len(buf))
				case ProcWriteDirect:
					io, err = c.StartWriteDirect(p, fh, 0, reg, 0, len(buf))
				case ProcReadBatch:
					io, err = c.StartReadBatch(p, fh, segs, reg, 0)
				case ProcWriteBatch:
					io, err = c.StartWriteBatch(p, fh, segs, reg, 0)
				}
				if err != nil {
					if c.failErr == nil && !errors.Is(err, ErrClosed) {
						t.Errorf("%v: start failed on a healthy session: %v", proc, err)
					}
					continue
				}
				n, err := io.Wait(p)
				if err != nil && n != 0 {
					t.Errorf("%v: Wait returned %d with error %v", proc, n, err)
				}
				if err != nil && Status(status) == StatusOK && bytes.Equal(body, validReply(proc)) {
					t.Errorf("%v: a valid reply failed: %v", proc, err)
				}
			}
			if err := c.Close(p); err != nil && c.failErr == nil {
				t.Errorf("close: %v", err)
			}
			nic.Deregister(p, reg)
			p.Wait(100 * sim.Microsecond) // the last reply's ack reaches the peer
			if got := nic.Regions(); got != regions {
				t.Errorf("closed session left %d region(s) pinned (had %d, now %d)", got-regions, regions, got)
			}
			if m := r.prov.RingMem(); m.Live != mem.Live || m.Cells != mem.Cells {
				t.Errorf("pool after the session: %+v, want %+v live", m, mem)
			}
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
