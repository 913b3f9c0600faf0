package mpi

import (
	"fmt"

	"dafsio/internal/sim"
	"dafsio/internal/via"
	"dafsio/internal/wire"
)

// encodeEnv writes a message envelope into the first envLen bytes.
func encodeEnv(buf []byte, kind uint8, ctx uint32, src, tag, size int, token uint64, handle via.MemHandle, offset int) {
	w := wire.NewWriter(buf[:envLen])
	w.U8(kind)
	w.U8(0)
	w.U16(uint16(src))
	w.U32(uint32(int32(tag)))
	w.U32(uint32(size))
	w.U64(token)
	w.U32(uint32(handle))
	w.U32(uint32(offset))
	w.U32(ctx)
	if w.Err() != nil {
		panic(w.Err())
	}
}

func decodeEnv(buf []byte) envelope {
	r := wire.NewReader(buf[:envLen])
	e := envelope{}
	e.kind = r.U8()
	r.U8()
	e.src = int(r.U16())
	e.tag = int(int32(r.U32()))
	e.size = int(r.U32())
	e.token = r.U64()
	e.handle = via.MemHandle(r.U32())
	e.offset = int(r.U32())
	e.ctx = r.U32()
	if r.Err() != nil {
		panic(r.Err())
	}
	return e
}

// Send is a blocking standard-mode send: it returns when the payload is out
// of the caller's buffer (eager: copied to a bounce buffer; rendezvous:
// pulled by the receiver and FIN'd).
func (c *Comm) Send(p *sim.Proc, dst, tag int, data []byte) {
	r, ctx := c.r, c.ctx
	if tag < 0 {
		panic("mpi: negative tag on send")
	}
	r.nic.Node.Compute(p, r.world.prof.MarshalCost)
	if dst == r.id {
		r.selfSend(p, ctx, tag, data)
		return
	}
	if len(data) <= eagerMax {
		r.sendEager(p, ctx, dst, tag, data)
		return
	}
	r.sendRndv(p, ctx, dst, tag, data)
}

// post sends the first n bytes of a send slot, envelope and payload, from
// the slot's own descriptor.
func (r *Rank) post(p *sim.Proc, s *slot, n int) error {
	s.desc = via.Descriptor{Op: via.OpSend, Region: s.reg, Offset: s.i * r.world.slotSize(), Len: n, Ctx: s}
	return s.pr.vi.PostSend(p, &s.desc)
}

func (r *Rank) sendEager(p *sim.Proc, ctx uint32, dst, tag int, data []byte) {
	pr := r.pairs[dst]
	// The credit travels with the message: the receiving rank returns it
	// in arrival() once the envelope is consumed (credit-based flow
	// control), so this proc never releases it and may park on the send
	// pool meanwhile.
	pr.credits.Acquire(p, 1)
	s, _ := pr.sendPool.Recv(p)
	buf := s.bytes(envLen + len(data))
	encodeEnv(buf, kEager, ctx, r.id, tag, len(data), 0, 0, 0)
	copy(buf[envLen:], data)
	r.nic.Node.CopyMem(p, len(data)) // user buffer -> bounce buffer
	if err := r.post(p, s, envLen+len(data)); err != nil {
		panic(fmt.Sprintf("mpi: eager send failed: %v", err))
	}
}

// sendCtl sends a payload-free control message (RTS or FIN) to dst; an
// RTS names the sender's data at off in the region of handle.
func (r *Rank) sendCtl(p *sim.Proc, dst int, kind uint8, ctx uint32, tag, size int, token uint64, handle via.MemHandle, off int) {
	pr := r.pairs[dst]
	// Same credit discipline as sendEager: the receiving rank returns the
	// credit in arrival().
	pr.credits.Acquire(p, 1)
	s, _ := pr.sendPool.Recv(p)
	encodeEnv(s.bytes(envLen), kind, ctx, r.id, tag, size, token, handle, off)
	if err := r.post(p, s, envLen); err != nil {
		panic(fmt.Sprintf("mpi: control send failed: %v", err))
	}
}

func (r *Rank) sendRndv(p *sim.Proc, ctx uint32, dst, tag int, data []byte) {
	reg, off := r.nic.Pin(p, data) // pin the user buffer for the pull
	r.rndvSeq++
	q := r.newRecv(ctx, dst, tag, nil)
	q.token = r.rndvSeq
	r.fins = append(r.fins, q)
	r.sendCtl(p, dst, kRTS, ctx, tag, len(data), q.token, reg.Handle, off)
	q.done.Get(p)
	r.putRecv(q)
	r.nic.Unpin(p, reg)
}

// selfSend delivers locally with one memory copy.
func (r *Rank) selfSend(p *sim.Proc, ctx uint32, tag int, data []byte) {
	if q := r.matchPosted(ctx, r.id, tag); q != nil {
		q.sized(r.id, len(data))
		n := copy(q.buf, data)
		r.nic.Node.CopyMem(p, n)
		q.done.Set(RecvStatus{Source: r.id, Tag: tag, Count: n})
		return
	}
	env := r.newEnv()
	env.kind, env.ctx, env.src, env.tag, env.size = kEager, ctx, r.id, tag, len(data)
	r.keep(env, data)
	r.nic.Node.CopyMem(p, len(data))
	r.unexpected = append(r.unexpected, env)
}

// Recv blocks until a message matching (src, tag) arrives; wildcards
// AnySource/AnyTag are honored, AnyTag for application tags only. The
// payload lands in buf (truncated if buf is short, like an MPI receive
// into a smaller type map would error — here we deliver the prefix).
func (c *Comm) Recv(p *sim.Proc, src, tag int, buf []byte) RecvStatus {
	st, _ := c.irecv(p, src, tag, buf, nil).wait(p)
	return st
}

// irecv makes the receive of (src, tag) on c and matches it to a message
// that arrived first, or posts it for progress to match. Its buffer is buf
// or, when into is set, the one into returns for the matched message's
// size (sized). A message that arrived first is delivered by wait, in the
// waiting proc.
func (c *Comm) irecv(p *sim.Proc, src, tag int, buf []byte, into func(src, n int) []byte) *recv {
	r := c.r
	r.nic.Node.Compute(p, r.world.prof.MarshalCost)
	q := r.newRecv(c.ctx, src, tag, buf)
	q.into, q.traceCtx = into, p.TraceCtx()
	if q.env = r.takeUnexpected(c.ctx, src, tag); q.env == nil {
		r.posted = append(r.posted, q)
	}
	return q
}

// wait blocks until the receive irecv made completes, gives its record
// back and returns its status and payload, in the receive's buffer.
func (q *recv) wait(p *sim.Proc) (RecvStatus, []byte) {
	var st RecvStatus
	if env := q.env; env != nil {
		st = q.deliver(p, env)
		q.r.putEnv(env)
	} else {
		st = q.done.Get(p)
	}
	data := q.buf[:st.Count]
	q.r.putRecv(q)
	return st, data
}

// sized gives a receive made with into its buffer once its message of n
// bytes from src has matched: into's, cut to n.
func (q *recv) sized(src, n int) {
	if q.into != nil {
		q.buf = q.into(src, n)[:n]
	}
}

// newRecv takes a recv record off the free list, or makes one, and sets it
// up for (ctx, src, tag, buf).
func (r *Rank) newRecv(ctx uint32, src, tag int, buf []byte) *recv {
	q := r.freeRecvs
	if q != nil {
		r.freeRecvs, q.next = q.next, nil
		q.done.Reset()
	} else {
		q = &recv{r: r}
		q.done.Init(r.world.k)
		q.readDone.Init(r.world.k)
		q.run = q.pullPosted
	}
	q.ctx, q.src, q.tag, q.buf = ctx, src, tag, buf
	return q
}

// putRecv gives a finished recv record back to its rank.
func (r *Rank) putRecv(q *recv) {
	q.buf, q.into, q.env, q.next = nil, nil, nil, r.freeRecvs
	r.freeRecvs = q
}

// newEnv takes an envelope record off the free list, or makes one.
func (r *Rank) newEnv() *envelope {
	env := r.freeEnvs
	if env == nil {
		return new(envelope)
	}
	r.freeEnvs, env.next = env.next, nil
	return env
}

// putEnv gives a delivered envelope, and its eager payload copy, back.
func (r *Rank) putEnv(env *envelope) {
	if n := len(env.data); n > 0 && n <= eagerMax {
		r.nic.Provider().PutBuf(env.data)
	}
	*env = envelope{next: r.freeEnvs}
	r.freeEnvs = env
}

// keep copies an eager payload that found no receive into env, in a buffer
// of the provider's pool. Only a self-send can exceed eagerMax; its copy
// is the caller's alone.
func (r *Rank) keep(env *envelope, data []byte) {
	switch n := len(data); {
	case n == 0:
	case n <= eagerMax:
		env.data = r.nic.Provider().TakeBuf(n, eagerMax)
	default:
		env.data = make([]byte, n)
	}
	copy(env.data, data)
}

// matches reports whether a receive of (src, tag) takes a message from
// msrc with mtag. AnyTag matches application tags only: a collective's
// message goes to the collective's own receive.
func matches(src, tag, msrc, mtag int) bool {
	return (src == AnySource || src == msrc) && (tag == mtag || tag == AnyTag && mtag < collTagBase)
}

// takeUnexpected pops the first queued envelope of context ctx matching
// (src, tag).
func (r *Rank) takeUnexpected(ctx uint32, src, tag int) *envelope {
	for i, env := range r.unexpected {
		if env.ctx == ctx && matches(src, tag, env.src, env.tag) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return env
		}
	}
	return nil
}

// matchPosted pops the first posted receive of context ctx matching a
// message from src with tag.
func (r *Rank) matchPosted(ctx uint32, src, tag int) *recv {
	for i, q := range r.posted {
		if q.ctx == ctx && matches(q.src, q.tag, src, tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return q
		}
	}
	return nil
}

// deliver completes a receive from an already-arrived envelope in the
// receiving process's own context (may block for the rendezvous pull).
func (q *recv) deliver(p *sim.Proc, env *envelope) RecvStatus {
	q.sized(env.src, env.size)
	switch env.kind {
	case kEager:
		n := copy(q.buf, env.data)
		q.r.nic.Node.CopyMem(p, n) // unexpected buffer -> user buffer
		return RecvStatus{Source: env.src, Tag: env.tag, Count: n}
	case kRTS:
		n := q.pull(p, env)
		return RecvStatus{Source: env.src, Tag: env.tag, Count: n}
	default:
		panic("mpi: bad envelope kind in deliver")
	}
}

// pullPosted is the proc a posted receive's pull runs in: the pull blocks
// on RDMA, so it runs outside the progress handler.
func (q *recv) pullPosted(p *sim.Proc) {
	n := q.pull(p, &q.rts)
	q.done.Set(RecvStatus{Source: q.rts.src, Tag: q.rts.tag, Count: n})
}

// pull executes the rendezvous data movement: pin the destination,
// RDMA-read from the sender's pinned buffer, FIN.
func (q *recv) pull(p *sim.Proc, env *envelope) int {
	r := q.r
	n := min(env.size, len(q.buf))
	if n > 0 {
		reg, off := r.nic.Pin(p, q.buf[:n])
		q.readDone.Reset()
		q.read = via.Descriptor{
			Op: via.OpRDMARead, Region: reg, Offset: off, Len: n,
			RemoteHandle: env.handle, RemoteOffset: env.offset, Ctx: q,
		}
		if err := r.pairs[env.src].vi.PostSend(p, &q.read); err != nil {
			panic(fmt.Sprintf("mpi: rendezvous pull failed: %v", err))
		}
		comp := q.readDone.Get(p)
		r.nic.Unpin(p, reg)
		if comp.Err != nil {
			panic(fmt.Sprintf("mpi: rendezvous RDMA error: %v", comp.Err))
		}
	}
	r.sendCtl(p, env.src, kFIN, env.ctx, env.tag, 0, env.token, 0, 0)
	return n
}

// progress is the rank's completion engine, the handler of its notify
// queue: it matches arrivals against posted receives, recycles buffers,
// returns credits, and dispatches rendezvous work.
func (r *Rank) progress(p *sim.Proc, comp via.Completion) {
	switch ctx := comp.Desc.Ctx.(type) {
	case *slot:
		if comp.Err != nil {
			panic(fmt.Sprintf("mpi: %v completion error: %v", comp.Op, comp.Err))
		}
		if comp.Op == via.OpRecv {
			r.arrival(p, comp.Len, ctx)
			return
		}
		ctx.release(comp.Desc.Len)
		ctx.pr.sendPool.Send(p, ctx)
	case *recv:
		ctx.readDone.Set(comp)
	}
}

// finish recycles a receive slot once its message of n bytes is dead (its
// payload copied out): it gives the slot's bytes back, reposts the slot's
// descriptor and returns the sender's credit (piggybacked flow control,
// modeled as free).
func (s *slot) finish(p *sim.Proc, n int) {
	s.release(n)
	ss := s.desc.Len // a receive is posted over the whole slot
	s.desc = via.Descriptor{Region: s.reg, Offset: s.i * ss, Len: ss, Ctx: s}
	if err := s.pr.vi.PostRecv(p, &s.desc); err != nil {
		panic(fmt.Sprintf("mpi: repost failed: %v", err))
	}
	s.pr.back.Release(1)
}

// arrival handles one incoming message of n bytes in the progress engine.
func (r *Rank) arrival(p *sim.Proc, n int, s *slot) {
	raw := s.bytes(n)[:n]
	env := decodeEnv(raw)
	payload := raw[envLen:]

	switch env.kind {
	case kEager:
		if q := r.matchPosted(env.ctx, env.src, env.tag); q != nil {
			q.sized(env.src, env.size)
			c := copy(q.buf, payload)
			r.nic.Node.CopyMem(p, c) // bounce -> user buffer
			s.finish(p, n)
			q.done.Set(RecvStatus{Source: env.src, Tag: env.tag, Count: c})
			return
		}
		// Queue the envelope *before* charging the copy: CopyMem parks
		// this engine, and a receive posted during that park must find
		// the message in the unexpected queue (lost-wakeup hazard).
		e := r.newEnv()
		*e = env
		r.keep(e, payload)
		r.unexpected = append(r.unexpected, e)
		r.nic.Node.CopyMem(p, len(payload)) // bounce -> unexpected buffer
		s.finish(p, n)
	case kRTS:
		if q := r.matchPosted(env.ctx, env.src, env.tag); q != nil {
			q.rts = env
			q.sized(env.src, env.size)
			s.finish(p, n)
			r.world.k.Spawn(r.pullName, q.run).SetTraceCtx(q.traceCtx)
			return
		}
		e := r.newEnv()
		*e = env
		r.unexpected = append(r.unexpected, e)
		s.finish(p, n)
	case kFIN:
		q := r.takeFin(env.token)
		s.finish(p, n)
		if q != nil {
			q.done.Set(RecvStatus{})
		}
	default:
		panic("mpi: unknown message kind")
	}
}

// takeFin pops the rendezvous send waiting for the FIN of token.
func (r *Rank) takeFin(token uint64) *recv {
	for i, q := range r.fins {
		if q.token == token {
			r.fins = append(r.fins[:i], r.fins[i+1:]...)
			return q
		}
	}
	return nil
}

// Req is a nonblocking send's handle. Its record is the rank's: Wait gives
// it back, so a request is waited once, and waiting it again panics.
type Req struct {
	c        *Comm
	done     sim.Future[RecvStatus]
	dst, tag int
	data     []byte
	run      func(p *sim.Proc) // req.send
	next     *Req
	idle     bool
}

// Wait blocks until the operation completes.
func (req *Req) Wait(p *sim.Proc) RecvStatus {
	if req.idle {
		panic("mpi: request waited twice")
	}
	st := req.done.Get(p)
	r := req.c.r
	req.c, req.data, req.idle, req.next = nil, nil, true, r.freeReqs
	r.freeReqs = req
	return st
}

// send is the body of an Isend's proc.
func (req *Req) send(p *sim.Proc) {
	req.c.Send(p, req.dst, req.tag, req.data)
	req.done.Set(RecvStatus{Source: req.c.r.id, Tag: req.tag, Count: len(req.data)})
}

// Isend starts a nonblocking send, in a proc that carries the caller's
// trace context. The data buffer must stay untouched until Wait returns.
func (c *Comm) Isend(p *sim.Proc, dst, tag int, data []byte) *Req {
	r := c.r
	req := r.freeReqs
	if req != nil {
		r.freeReqs, req.next, req.idle = req.next, nil, false
		req.done.Reset()
	} else {
		req = new(Req)
		req.done.Init(r.world.k)
		req.run = req.send
	}
	req.c, req.dst, req.tag, req.data = c, dst, tag, data
	r.world.k.Spawn(r.isendName, req.run).SetTraceCtx(p.TraceCtx())
	return req
}

// Sendrecv runs a send and a receive concurrently (the deadlock-free
// exchange primitive the collectives are built on).
func (c *Comm) Sendrecv(p *sim.Proc, dst, stag int, sdata []byte, src, rtag int, rbuf []byte) RecvStatus {
	sreq := c.Isend(p, dst, stag, sdata)
	st := c.Recv(p, src, rtag, rbuf)
	sreq.Wait(p)
	return st
}
