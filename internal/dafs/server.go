package dafs

import (
	"fmt"

	"dafsio/internal/fabric"
	"dafsio/internal/metrics"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// serverWorkers is the number of concurrent request-service contexts.
// Direct operations block their worker for the duration of the
// server-driven RDMA, so workers bound RDMA concurrency.
const serverWorkers = 4

// ServerStats counts server activity.
type ServerStats struct {
	Sessions         int64
	Requests         int64
	InlineReadBytes  int64
	InlineWriteBytes int64
	DirectReadBytes  int64
	DirectWriteBytes int64
}

// Server is a DAFS file server on one node.
type Server struct {
	node  *fabric.Node
	nic   *via.NIC
	prof  *model.Profile
	k     *sim.Kernel
	store *storage.Store
	disk  *storage.Disk

	cq       *via.CQ
	workQ    *sim.Chan[*reqSlot]
	sessions []*session
	crashed  bool
	fence    uint32 // minimum client epoch admitted (see SetFence)

	staging [][]byte // staging page sets no request is using (getStaging)

	tr    *trace.Tracer
	mOpNs metrics.Hist // per-request service latency, arrival to reply posted
	stats ServerStats
}

// session is the server-side state of one client connection.
type session struct {
	vi        via.VI
	respPool  sim.Chan[*respSlot]
	maxInline int
	slotSize  int
	closed    bool

	// The session's rings, registered into records it owns, with their
	// slot tables, the slots and the response pool's room: accept
	// allocates them with the session, not per slot, and tears the rings
	// down if session establishment fails partway.
	reqReg, respReg     via.Region
	reqTable, respTable [credits][]byte
	reqs                [credits]reqSlot
	resps               [credits]respSlot
	respIdle            [credits]*respSlot
}

// reqSlot is a session's receive slot and the completion context it is
// posted with. While a request sits in it, it is also that request's state:
// dispatch stamps the arrival, and the slot belongs to the handler until
// the handler re-posts it. Whatever the handler needs after the re-post it
// copies out first.
type reqSlot struct {
	slot
	sess   *session
	length int
	parent trace.OpID // client-side descriptor span the request rode in on
	at     sim.Time   // arrival time (request delivery, before queueing)
}

// respSlot is a session's response slot and its completion context.
type respSlot struct {
	slot
	sess *session
	bye  bool // carries the DISCONNECT reply: the session's last message
}

// workerState is what a worker reuses from one request to the next: the
// reader that decodes the request and the writer that encodes its reply,
// the registration record, descriptor and future of the RDMA it drives
// (one at a time, so one of each) and the segment list of the batch
// request it serves.
type workerState struct {
	r    rd
	w    wr
	reg  via.Region
	d    via.Descriptor
	done *sim.Future[via.Completion]
	segs []SegSpec
}

// NewServer creates a DAFS server on the NIC's node, with its completion
// queue and worker processes. A non-nil disk makes data operations
// touch it (uncached server); nil models the fully cached server the
// paper-era evaluations used.
func NewServer(nic *via.NIC, store *storage.Store, disk *storage.Disk) *Server {
	prov := nic.Provider()
	s := &Server{
		node:  nic.Node,
		nic:   nic,
		prof:  prov.Prof,
		k:     prov.K,
		store: store,
		disk:  disk,
		workQ: sim.NewChan[*reqSlot](prov.K, 0),
		tr:    prov.Tracer,
	}
	s.cq = nic.NewNotifyCQ(nic.Node.Name+".dafs.cq", s.dispatch)
	for i := 0; i < serverWorkers; i++ {
		s.k.SpawnDaemon(fmt.Sprintf("%s.dafs.worker%d", nic.Node.Name, i), s.worker)
	}
	if m := prov.Metrics; m != nil {
		// Strict registration: there is exactly one DAFS server per node.
		// Counters are func-backed over stats the server already keeps.
		pre := "dafs.server." + nic.Node.Name + "."
		m.CounterFunc(pre+"requests", func() int64 { return s.stats.Requests })
		m.CounterFunc(pre+"sessions", func() int64 { return s.stats.Sessions })
		m.GaugeFunc(pre+"queue_depth", func() int64 { return int64(s.workQ.Len()) })
		m.CounterFunc(pre+"rd_bytes", func() int64 { return s.stats.InlineReadBytes + s.stats.DirectReadBytes })
		m.CounterFunc(pre+"wr_bytes", func() int64 { return s.stats.InlineWriteBytes + s.stats.DirectWriteBytes })
		s.mOpNs = m.Hist(pre + "op_ns")
	}
	return s
}

// NIC returns the server's VIA NIC.
func (s *Server) NIC() *via.NIC { return s.nic }

// Stats returns a copy of the server counters.
func (s *Server) Stats() ServerStats { return s.stats }

// Crash fail-stops the server: it rejects new sessions and stops servicing
// requests. A crashed server stays down until Restart
// (fault.ServerRestart); until then recovery is the clients' job (redial
// another replica). Pair with NIC.Kill so in-flight wire traffic dies too.
func (s *Server) Crash() { s.crashed = true }

// Restart re-admits a crashed server with an empty session table: every
// pre-crash session is gone (clients must redial; their stale handles get
// ErrSession), but the store — and therefore all durably written data —
// survives intact. Pair with NIC.Revive so the wire comes back too.
func (s *Server) Restart() {
	s.crashed = false
	for _, sess := range s.sessions {
		sess.closed = true
		// The power cycle unpins the session's buffers with the rest of
		// its state, at no CPU cost (Restart runs in kernel context).
		s.nic.DropCached(&sess.reqReg)
		s.nic.DropCached(&sess.respReg)
	}
	s.sessions = nil
}

// SetFence sets the minimum membership epoch a connect must present
// (Options.Epoch). A newly joined server fences at its join epoch:
// clients whose membership view predates the join cannot validly address
// it, so their connects fail with ErrStaleEpoch until they refresh. The
// fence is checked only at session establishment — sessions admitted
// under an older fence drain naturally.
func (s *Server) SetFence(e uint32) { s.fence = e }

// accept performs the server side of session establishment: it creates and
// connects the VI, registers the session's message buffers, and pre-posts
// one receive per credit. It runs in the dialing process but charges the
// server's CPU. Admission control — crash and the membership
// fence — happens here, in the out-of-band connection phase, so none of
// it alters on-wire message sizes or timing for admitted sessions.
func (s *Server) accept(p *sim.Proc, clientVI *via.VI, o Options, slotSize int) error {
	if s.crashed {
		return fmt.Errorf("%w: server %s is down", ErrSession, s.node.Name)
	}
	if o.Epoch < s.fence {
		return fmt.Errorf("%w: connect epoch %d < fence %d on %s", ErrStaleEpoch, o.Epoch, s.fence, s.node.Name)
	}
	s.node.Compute(p, s.prof.DAFSOpCost) // session setup
	sess := &session{
		maxInline: o.MaxInline,
		slotSize:  slotSize,
	}
	vi := &sess.vi
	s.nic.InitVI(vi, s.cq, s.cq)
	via.Connect(clientVI, vi)
	sess.respPool.Init(s.k, 0, sess.respIdle[:])
	s.nic.RegisterRing(p, &sess.reqReg, sess.reqTable[:], slotSize)
	s.nic.RegisterRing(p, &sess.respReg, sess.respTable[:], slotSize)
	for i := 0; i < credits; i++ {
		rq := &sess.reqs[i]
		rq.reg, rq.i, rq.sess = &sess.reqReg, i, sess
		rq.desc = via.Descriptor{Region: &sess.reqReg, Offset: i * slotSize, Len: slotSize, Ctx: rq}
		if err := vi.PostRecv(p, &rq.desc); err != nil {
			// Session establishment failed partway: the session is never
			// appended, so nothing else will ever release its registrations.
			s.nic.Deregister(p, &sess.reqReg)
			s.nic.Deregister(p, &sess.respReg)
			return err
		}
		rs := &sess.resps[i]
		rs.reg, rs.i, rs.sess = &sess.respReg, i, sess
		sess.respPool.TrySend(rs)
	}
	s.sessions = append(s.sessions, sess)
	s.stats.Sessions++
	return nil
}

// dispatch is the server's completion handler: it routes incoming
// requests to the work queue, response-send completions back to buffer
// pools, and RDMA completions to the worker awaiting them. It runs on the
// notify queue's drain proc, one completion at a time.
func (s *Server) dispatch(p *sim.Proc, comp via.Completion) {
	switch ctx := comp.Desc.Ctx.(type) {
	case *reqSlot:
		if comp.Err != nil {
			ctx.sess.closed = true
			return
		}
		ctx.length, ctx.parent, ctx.at = comp.Len, comp.Trace, p.Now()
		s.workQ.Send(p, ctx)
	case *respSlot:
		bye := ctx.bye
		ctx.release(comp.Desc.Len)
		ctx.sess.respPool.TrySend(ctx)
		if bye {
			// Nothing references the session's buffers once its
			// DISCONNECT reply is out.
			s.nic.Deregister(p, &ctx.sess.reqReg)
			s.nic.Deregister(p, &ctx.sess.respReg)
		}
	case *sim.Future[via.Completion]:
		ctx.Set(comp)
	}
}

// worker services requests from the shared work queue.
func (s *Server) worker(p *sim.Proc) {
	ws := &workerState{done: sim.NewFuture[via.Completion](s.k)}
	for {
		req, ok := s.workQ.Recv(p)
		if !ok {
			return
		}
		s.handle(p, ws, req)
	}
}

func (s *Server) handle(p *sim.Proc, ws *workerState, req *reqSlot) {
	if s.crashed {
		return
	}
	sess := req.sess
	if sess.closed {
		return // session predates a restart or died mid-service: no reply
	}
	msg := req.bytes()[:req.length]
	hdr, err := decodeHeader(msg)
	if err != nil {
		s.node.Compute(p, s.prof.MarshalCost)
		sess.closed = true
		return
	}
	// The execution span starts at request arrival, so worker-pool wait is
	// inside the span (charged to queue); it parents to the client-side
	// send descriptor that carried the request, joining the trees across
	// nodes. The span becomes the proc's trace context so the RDMA and
	// response descriptors the handler posts parent back to it.
	at := req.at
	op := s.tr.BeginAt(s.node.Name, trace.LayerServer, hdr.Proc.String(), req.parent, uint64(hdr.XID), -1, at)
	t0 := p.Now()
	s.tr.Charge(op, trace.CatQueue, t0-at)
	oldCtx := p.SetTraceCtx(uint64(op))
	defer func() {
		p.SetTraceCtx(oldCtx)
		s.tr.End(op)
	}()
	s.node.Compute(p, s.prof.MarshalCost)
	body := msg[HeaderLen : HeaderLen+int(hdr.BodyLen)]
	s.node.Compute(p, s.prof.DAFSOpCost)
	s.tr.Charge(op, trace.CatServerCPU, p.Now()-t0)
	ws.r.Reset(body)
	st, rp := s.exec(p, ws, sess, hdr.Proc, &ws.r)

	rs, _ := sess.respPool.Recv(p)
	w := &ws.w
	w.ResetGrow(&rs.slot)
	if st == StatusOK {
		rp.encode(w, hdr.Proc)
	}
	if w.Err() != nil {
		st = StatusProto
		clear(w.Bytes()) // the slot starts the reply again from zeros
		w.ResetGrow(&rs.slot)
	}
	n := HeaderLen + w.Len()
	encodeHeader(rs.reg.Grow(rs.i, n), Header{Proc: hdr.Proc, XID: hdr.XID, Status: st, BodyLen: uint32(w.Len())})
	t1 := p.Now()
	s.node.Compute(p, s.prof.MarshalCost)
	s.tr.Charge(op, trace.CatServerCPU, p.Now()-t1)

	// Re-post the request buffer before replying so the credit the client
	// recovers on this response always finds a posted receive. The request
	// is dead by now: exec has consumed its body and the reply is encoded.
	req.release(req.length)
	if err := sess.vi.PostRecv(p, &req.desc); err != nil {
		sess.closed = true
		return
	}
	rs.bye = hdr.Proc == ProcDisconnect && st == StatusOK
	rs.desc = via.Descriptor{Op: via.OpSend, Region: rs.reg, Offset: rs.i * sess.slotSize, Len: n, Ctx: rs}
	if err := sess.vi.PostSend(p, &rs.desc); err != nil {
		sess.closed = true
		return
	}
	s.stats.Requests++
	s.mOpNs.Observe(int64(p.Now() - at))
}

// reply is what exec answers a request with when its status is OK. It is
// encoded once the response slot is taken, after exec: Lookup, Create and
// Getattr read the file's size then, and an inline read its bytes.
type reply struct {
	f       *storage.File // LOOKUP, CREATE, GETATTR, READ
	off     int64         // READ: where the data starts; APPEND: where it landed
	n       uint32        // data operations: the byte count; CONNECT: the inline limit
	credits uint16        // CONNECT
}

// encode writes the response body of a proc request.
func (rp *reply) encode(w *wr, proc Proc) {
	switch proc {
	case ProcConnect:
		w.U16(rp.credits)
		w.U32(rp.n)
	case ProcLookup, ProcCreate:
		w.U64(uint64(rp.f.ID()))
		w.U64(uint64(rp.f.Size()))
	case ProcGetattr:
		w.U64(uint64(rp.f.Size()))
	case ProcRead:
		w.U32(rp.n)
		if b := w.Need(int(rp.n)); b != nil {
			rp.f.ReadAt(b, rp.off)
		}
	case ProcWrite, ProcReadDirect, ProcWriteDirect, ProcReadBatch, ProcWriteBatch:
		w.U32(rp.n)
	case ProcAppend:
		w.U64(uint64(rp.off))
	}
}

// storageStatus maps storage errors to wire statuses.
func storageStatus(err error) Status {
	switch err {
	case nil:
		return StatusOK
	case storage.ErrNotFound:
		return StatusNoEnt
	case storage.ErrExists:
		return StatusExist
	case storage.ErrBadHandle:
		return StatusStale
	default:
		return StatusIO
	}
}

// exec runs one operation and returns the response status and what to
// answer with.
func (s *Server) exec(p *sim.Proc, ws *workerState, sess *session, proc Proc, r *rd) (Status, reply) {
	switch proc {
	case ProcConnect:
		credits := r.U16()
		inline := r.U32()
		if r.Err() != nil {
			return StatusProto, reply{}
		}
		return StatusOK, reply{credits: credits, n: inline}

	case ProcDisconnect:
		sess.closed = true
		return StatusOK, reply{}

	case ProcLookup:
		name := r.StrBytes()
		if r.Err() != nil {
			return StatusProto, reply{}
		}
		f, err := s.store.LookupBytes(name)
		if err != nil {
			return storageStatus(err), reply{}
		}
		return StatusOK, reply{f: f}

	case ProcCreate:
		name := r.Str()
		if r.Err() != nil {
			return StatusProto, reply{}
		}
		f, err := s.store.Create(name)
		if err != nil {
			return storageStatus(err), reply{}
		}
		return StatusOK, reply{f: f}

	case ProcRemove:
		name := r.Str()
		if r.Err() != nil {
			return StatusProto, reply{}
		}
		return storageStatus(s.store.Remove(name)), reply{}

	case ProcGetattr:
		f, st := s.file(r)
		if st != StatusOK {
			return st, reply{}
		}
		return StatusOK, reply{f: f}

	case ProcSetattr:
		f, st := s.file(r)
		size := int64(r.U64())
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if size < 0 || f.Truncate(size) != nil {
			return StatusInval, reply{}
		}
		return StatusOK, reply{}

	case ProcRead:
		f, st := s.file(r)
		off := int64(r.U64())
		count := int(r.U32())
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if count < 0 || count > sess.maxInline {
			return StatusTooBig, reply{}
		}
		n := f.ReadLen(off, count)
		s.touchDisk(p, off, n)
		// Server CPU copies out of the buffer cache into the response
		// message: the inline path's server-side copy.
		t0 := p.Now()
		s.node.Compute(p, sim.TransferTime(int64(n), s.prof.ServerMemBW))
		s.chargeCPU(p, p.Now()-t0)
		s.stats.InlineReadBytes += int64(n)
		return StatusOK, reply{f: f, off: off, n: uint32(n)}

	case ProcWrite:
		f, st := s.file(r)
		off := int64(r.U64())
		data := r.Blob()
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if len(data) > sess.maxInline {
			return StatusTooBig, reply{}
		}
		s.touchDisk(p, off, len(data))
		t0 := p.Now()
		s.node.Compute(p, sim.TransferTime(int64(len(data)), s.prof.ServerMemBW))
		s.chargeCPU(p, p.Now()-t0)
		n, err := f.WriteAt(data, off)
		if err != nil {
			return StatusInval, reply{}
		}
		s.stats.InlineWriteBytes += int64(n)
		return StatusOK, reply{n: uint32(n)}

	case ProcAppend:
		f, st := s.file(r)
		data := r.Blob()
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if len(data) > sess.maxInline {
			return StatusTooBig, reply{}
		}
		s.touchDisk(p, f.Size(), len(data))
		t0 := p.Now()
		s.node.Compute(p, sim.TransferTime(int64(len(data)), s.prof.ServerMemBW))
		s.chargeCPU(p, p.Now()-t0)
		// Size read and write are adjacent with no intervening yield, so
		// concurrent appends never interleave destructively.
		off := f.Size()
		if _, err := f.WriteAt(data, off); err != nil {
			return StatusInval, reply{}
		}
		s.stats.InlineWriteBytes += int64(len(data))
		return StatusOK, reply{off: off}

	case ProcReadDirect:
		f, st := s.file(r)
		off := int64(r.U64())
		count := int(r.U32())
		rhandle := via.MemHandle(r.U32())
		roff := int(r.U32())
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if count < 0 || count > MaxTransfer {
			return StatusInval, reply{}
		}
		n := f.ReadLen(off, count)
		s.touchDisk(p, off, n)
		// Zero server CPU data path: a one-segment batch read, gathered
		// from the buffer cache and DMAed into client memory.
		seg := [1]SegSpec{{Off: off, Len: n}}
		return s.execReadBatch(p, ws, sess, f, seg[:], n, rhandle, roff)

	case ProcWriteDirect:
		f, st := s.file(r)
		off := int64(r.U64())
		count := int(r.U32())
		rhandle := via.MemHandle(r.U32())
		roff := int(r.U32())
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if count > MaxTransfer {
			return StatusInval, reply{}
		}
		s.touchDisk(p, off, count)
		// A one-segment batch write: the NIC pulls the data from client
		// memory straight into buffer-cache pages.
		seg := [1]SegSpec{{Off: off, Len: count}}
		return s.execWriteBatch(p, ws, sess, f, seg[:], count, rhandle, roff)

	case ProcReadBatch, ProcWriteBatch:
		f, st := s.file(r)
		rhandle := via.MemHandle(r.U32())
		roff := int(r.U32())
		nsegs := int(r.U16())
		if st != StatusOK || r.Err() != nil {
			return firstBad(st, r), reply{}
		}
		if nsegs == 0 || nsegs > MaxBatchSegs {
			return StatusInval, reply{}
		}
		if cap(ws.segs) < nsegs {
			ws.segs = make([]SegSpec, MaxBatchSegs)
		}
		segs := ws.segs[:nsegs]
		total := 0
		for i := range segs {
			segs[i].Off = int64(r.U64())
			segs[i].Len = int(r.U32())
			if segs[i].Off < 0 || segs[i].Len < 0 {
				return StatusInval, reply{}
			}
			// Checked whole here, so placement never stops half way.
			if proc == ProcWriteBatch && !storage.Fits(segs[i].Off, int64(segs[i].Len)) {
				return StatusInval, reply{}
			}
			total += segs[i].Len
		}
		if r.Err() != nil {
			return StatusProto, reply{}
		}
		if total > MaxTransfer {
			return StatusInval, reply{}
		}
		for _, sg := range segs {
			s.touchDisk(p, sg.Off, sg.Len)
		}
		if proc == ProcReadBatch {
			return s.execReadBatch(p, ws, sess, f, segs, total, rhandle, roff)
		}
		return s.execWriteBatch(p, ws, sess, f, segs, total, rhandle, roff)

	case ProcFsync:
		_, st := s.file(r)
		if st != StatusOK {
			return st, reply{}
		}
		if s.disk != nil {
			op := s.tr.Begin(s.node.Name, trace.LayerDisk, "fsync", trace.OpID(p.TraceCtx()))
			t0 := p.Now()
			s.disk.Access(p, 0)
			s.tr.Charge(op, trace.CatDisk, p.Now()-t0)
			s.tr.End(op)
		}
		return StatusOK, reply{}

	default:
		return StatusProto, reply{}
	}
}

// rdma moves len(buf) bytes between buf — pre-registered server memory:
// staging pages standing for the buffer cache — and the client's window
// with one server-driven transfer, and waits for its completion.
func (s *Server) rdma(p *sim.Proc, ws *workerState, sess *session, op via.Op, buf []byte, rhandle via.MemHandle, roff int) Status {
	reg := s.nic.RegisterCachedIn(&ws.reg, buf)
	defer s.nic.DropCached(reg)
	ws.done.Reset()
	ws.d = via.Descriptor{
		Op: op, Region: reg, Len: len(buf),
		RemoteHandle: rhandle, RemoteOffset: roff, Ctx: ws.done,
	}
	if err := sess.vi.PostSend(p, &ws.d); err != nil {
		return StatusIO
	}
	if comp := ws.done.Get(p); comp.Err != nil {
		return StatusAccess
	}
	return StatusOK
}

// getStaging returns n bytes of staging pages for one request's RDMA, a
// set an earlier request gave back when one is large enough. The content
// is whatever that request left: a caller that does not overwrite all of
// it clears the rest.
func (s *Server) getStaging(n int) []byte {
	if k := len(s.staging); k > 0 {
		b := s.staging[k-1]
		s.staging = s.staging[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putStaging gives staging pages back once their transfer has completed
// (no descriptor references them any more).
func (s *Server) putStaging(b []byte) { s.staging = append(s.staging, b) }

// execReadBatch gathers the requested segments from the buffer cache into
// staging pages (per-segment DMA in a real filer: zero CPU charge) and
// delivers everything with one RDMA write into the client's slots. The
// read returns the file as it was when the request ran, even if a write
// lands while the transfer is on the wire.
func (s *Server) execReadBatch(p *sim.Proc, ws *workerState, sess *session, f *storage.File, segs []SegSpec, total int, rhandle via.MemHandle, roff int) (Status, reply) {
	staging := s.getStaging(total)
	defer s.putStaging(staging)
	got := 0
	pos := 0
	for _, sg := range segs {
		n := f.ReadAt(staging[pos:pos+sg.Len], sg.Off)
		clear(staging[pos+n : pos+sg.Len]) // past EOF reads as zeros
		got += n
		pos += sg.Len
	}
	if total > 0 {
		if st := s.rdma(p, ws, sess, via.OpRDMAWrite, staging, rhandle, roff); st != StatusOK {
			return st, reply{}
		}
	}
	s.stats.DirectReadBytes += int64(got)
	return StatusOK, reply{n: uint32(got)}
}

// execWriteBatch pulls the packed segment data with one RDMA read into
// staging pages and places each segment at its file offset. Placement is
// atomic and charged no time (it models in-place page placement, not a
// CPU copy), so a concurrent reader never sees a half-placed write and a
// failed pull leaves the file untouched. The store's refusal of a segment
// past storage.MaxObject is StatusInval; a batch of more than one segment
// is checked whole against the bound when it is decoded, so that no
// refusal can come after part of it has landed.
func (s *Server) execWriteBatch(p *sim.Proc, ws *workerState, sess *session, f *storage.File, segs []SegSpec, total int, rhandle via.MemHandle, roff int) (Status, reply) {
	staging := s.getStaging(total)
	defer s.putStaging(staging)
	if total > 0 {
		if st := s.rdma(p, ws, sess, via.OpRDMARead, staging, rhandle, roff); st != StatusOK {
			return st, reply{}
		}
	}
	pos := 0
	for _, sg := range segs {
		if _, err := f.WriteAt(staging[pos:pos+sg.Len], sg.Off); err != nil { // atomic placement, no yields
			return StatusInval, reply{}
		}
		pos += sg.Len
	}
	s.stats.DirectWriteBytes += int64(total)
	return StatusOK, reply{n: uint32(total)}
}

// file decodes a file handle and resolves it.
func (s *Server) file(r *rd) (*storage.File, Status) {
	fh := storage.FileID(r.U64())
	if r.Err() != nil {
		return nil, StatusProto
	}
	f, err := s.store.Get(fh)
	if err != nil {
		return nil, StatusStale
	}
	return f, StatusOK
}

// firstBad picks the decode error over a handle error.
func firstBad(st Status, r *rd) Status {
	if r.Err() != nil {
		return StatusProto
	}
	return st
}

// touchDisk charges a disk access on uncached servers; sequential
// accesses skip the positioning time.
func (s *Server) touchDisk(p *sim.Proc, off int64, n int) {
	if s.disk == nil || n <= 0 {
		return
	}
	op := s.tr.Begin(s.node.Name, trace.LayerDisk, "access", trace.OpID(p.TraceCtx()))
	t0 := p.Now()
	s.disk.AccessAt(p, off, n)
	s.tr.Charge(op, trace.CatDisk, p.Now()-t0)
	s.tr.End(op)
}

// chargeCPU attributes already-elapsed server CPU time to the request span
// the worker is executing (carried in the proc's trace context).
func (s *Server) chargeCPU(p *sim.Proc, d sim.Time) {
	s.tr.Charge(trace.OpID(p.TraceCtx()), trace.CatServerCPU, d)
}
