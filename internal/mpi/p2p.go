package mpi

import (
	"fmt"

	"dafsio/internal/sim"
	"dafsio/internal/via"
	"dafsio/internal/wire"
)

// sendCtx marks send-descriptor completions so progress can recycle slots.
type sendCtx struct {
	pr *pair
	s  *slot
}

// encodeEnv writes a message envelope into the first envLen bytes.
func encodeEnv(buf []byte, kind uint8, src, tag, size int, token uint64, handle via.MemHandle, offset int) {
	w := wire.NewWriter(buf[:envLen])
	w.U8(kind)
	w.U8(0)
	w.U16(uint16(src))
	w.U32(uint32(int32(tag)))
	w.U32(uint32(size))
	w.U64(token)
	w.U32(uint32(handle))
	w.U32(uint32(offset))
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
	if r.Err() != nil {
		panic(r.Err())
	}
	return e
}

// Send is a blocking standard-mode send: it returns when the payload is out
// of the caller's buffer (eager: copied to a bounce buffer; rendezvous:
// pulled by the receiver and FIN'd).
func (r *Rank) Send(p *sim.Proc, dst, tag int, data []byte) {
	if tag < 0 {
		panic("mpi: negative tag on send")
	}
	r.nic.Node.Compute(p, r.world.prof.MarshalCost)
	if dst == r.id {
		r.selfSend(p, tag, data)
		return
	}
	if len(data) <= eagerMax {
		r.sendEager(p, dst, tag, data)
		return
	}
	r.sendRndv(p, dst, tag, data)
}

func (r *Rank) sendEager(p *sim.Proc, dst, tag int, data []byte) {
	pr := r.pairs[dst]
	// The credit travels with the message: the receiving rank returns it
	// in arrival() once the envelope is consumed (credit-based flow
	// control), so this proc never releases it and may park on the send
	// pool meanwhile.
	pr.credits.Acquire(p, 1)
	s, _ := pr.sendPool.Recv(p)
	buf := s.bytes(envLen + len(data))
	encodeEnv(buf, kEager, r.id, tag, len(data), 0, 0, 0)
	copy(buf[envLen:], data)
	r.nic.Node.CopyMem(p, len(data)) // user buffer -> bounce buffer
	err := pr.vi.PostSend(p, &via.Descriptor{
		Op: via.OpSend, Region: s.reg, Offset: s.i * r.world.slotSize(), Len: envLen + len(data),
		Ctx: &sendCtx{pr: pr, s: s},
	})
	if err != nil {
		panic(fmt.Sprintf("mpi: eager send failed: %v", err))
	}
}

// sendCtl sends a payload-free control message (RTS or FIN) to dst; an
// RTS names the sender's data at off in the region of handle.
func (r *Rank) sendCtl(p *sim.Proc, dst int, kind uint8, tag, size int, token uint64, handle via.MemHandle, off int) {
	pr := r.pairs[dst]
	// Same credit discipline as sendEager: the receiving rank returns the
	// credit in arrival().
	pr.credits.Acquire(p, 1)
	s, _ := pr.sendPool.Recv(p)
	encodeEnv(s.bytes(envLen), kind, r.id, tag, size, token, handle, off)
	err := pr.vi.PostSend(p, &via.Descriptor{
		Op: via.OpSend, Region: s.reg, Offset: s.i * r.world.slotSize(), Len: envLen,
		Ctx: &sendCtx{pr: pr, s: s},
	})
	if err != nil {
		panic(fmt.Sprintf("mpi: control send failed: %v", err))
	}
}

func (r *Rank) sendRndv(p *sim.Proc, dst, tag int, data []byte) {
	reg, off := r.nic.Pin(p, data) // pin the user buffer for the pull
	r.rndvSeq++
	token := r.rndvSeq
	fin := sim.NewFuture[struct{}](r.world.k)
	r.fins[token] = fin
	r.sendCtl(p, dst, kRTS, tag, len(data), token, reg.Handle, off)
	fin.Get(p)
	r.nic.Unpin(p, reg)
}

// selfSend delivers locally with one memory copy.
func (r *Rank) selfSend(p *sim.Proc, tag int, data []byte) {
	env := &envelope{kind: kEager, src: r.id, tag: tag, size: len(data)}
	if pr := r.matchPosted(env); pr != nil {
		n := copy(pr.buf, data)
		r.nic.Node.CopyMem(p, n)
		pr.fut.Set(RecvStatus{Source: r.id, Tag: tag, Count: n})
		return
	}
	env.data = append([]byte(nil), data...)
	r.nic.Node.CopyMem(p, len(data))
	r.unexpected = append(r.unexpected, env)
}

// Recv blocks until a message matching (src, tag) arrives; wildcards
// AnySource/AnyTag are honored. The payload lands in buf (truncated if buf
// is short, like an MPI receive into a smaller type map would error — here
// we deliver the prefix).
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf []byte) RecvStatus {
	r.nic.Node.Compute(p, r.world.prof.MarshalCost)
	if env := r.takeUnexpected(src, tag); env != nil {
		return r.deliver(p, env, buf)
	}
	pr := &postedRecv{src: src, tag: tag, buf: buf, fut: sim.NewFuture[RecvStatus](r.world.k)}
	r.posted = append(r.posted, pr)
	return pr.fut.Get(p)
}

// takeUnexpected pops the first queued envelope matching (src, tag).
func (r *Rank) takeUnexpected(src, tag int) *envelope {
	for i, env := range r.unexpected {
		if (src == AnySource || src == env.src) && (tag == AnyTag || tag == env.tag) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return env
		}
	}
	return nil
}

// matchPosted pops the first posted receive matching env.
func (r *Rank) matchPosted(env *envelope) *postedRecv {
	for i, pr := range r.posted {
		if (pr.src == AnySource || pr.src == env.src) && (pr.tag == AnyTag || pr.tag == env.tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return pr
		}
	}
	return nil
}

// deliver completes a receive from an already-arrived envelope in the
// receiving process's own context (may block for the rendezvous pull).
func (r *Rank) deliver(p *sim.Proc, env *envelope, buf []byte) RecvStatus {
	switch env.kind {
	case kEager:
		n := copy(buf, env.data)
		r.nic.Node.CopyMem(p, n) // unexpected buffer -> user buffer
		return RecvStatus{Source: env.src, Tag: env.tag, Count: n}
	case kRTS:
		n := r.pull(p, env, buf)
		return RecvStatus{Source: env.src, Tag: env.tag, Count: n}
	default:
		panic("mpi: bad envelope kind in deliver")
	}
}

// pull executes the rendezvous data movement: pin the destination,
// RDMA-read from the sender's pinned buffer, FIN.
func (r *Rank) pull(p *sim.Proc, env *envelope, buf []byte) int {
	n := min(env.size, len(buf))
	if n > 0 {
		reg, off := r.nic.Pin(p, buf[:n])
		fut := sim.NewFuture[via.Completion](r.world.k)
		err := r.pairs[env.src].vi.PostSend(p, &via.Descriptor{
			Op: via.OpRDMARead, Region: reg, Offset: off, Len: n,
			RemoteHandle: env.handle, RemoteOffset: env.offset, Ctx: fut,
		})
		if err != nil {
			panic(fmt.Sprintf("mpi: rendezvous pull failed: %v", err))
		}
		comp := fut.Get(p)
		r.nic.Unpin(p, reg)
		if comp.Err != nil {
			panic(fmt.Sprintf("mpi: rendezvous RDMA error: %v", comp.Err))
		}
	}
	r.sendCtl(p, env.src, kFIN, env.tag, 0, env.token, 0, 0)
	return n
}

// progress is the rank's completion engine, the handler of its notify
// queue: it matches arrivals against posted receives, recycles buffers,
// returns credits, and dispatches rendezvous work.
func (r *Rank) progress(p *sim.Proc, comp via.Completion) {
	switch ctx := comp.Desc.Ctx.(type) {
	case *sendCtx:
		if comp.Err != nil {
			panic(fmt.Sprintf("mpi: send completion error: %v", comp.Err))
		}
		ctx.s.release(comp.Desc.Len)
		ctx.pr.sendPool.Send(p, ctx.s)
	case *slot:
		if comp.Err != nil {
			panic(fmt.Sprintf("mpi: recv completion error: %v", comp.Err))
		}
		r.arrival(p, comp, ctx)
	case *sim.Future[via.Completion]:
		ctx.Set(comp)
	}
}

// arrival handles one incoming message in the progress engine.
func (r *Rank) arrival(p *sim.Proc, comp via.Completion, s *slot) {
	raw := s.bytes(comp.Len)[:comp.Len]
	env := decodeEnv(raw)
	payload := raw[envLen:]

	finish := func() {
		// Recycle the bounce slot and return the sender's credit
		// (piggybacked flow control, modeled as free). The message is dead:
		// its payload has been copied out.
		s.release(comp.Len)
		ss := r.world.slotSize()
		if err := comp.VI.PostRecv(p, &via.Descriptor{Region: s.reg, Offset: s.i * ss, Len: ss, Ctx: s}); err != nil {
			panic(fmt.Sprintf("mpi: repost failed: %v", err))
		}
		r.world.ranks[env.src].pairs[r.id].credits.Release(1)
	}

	switch env.kind {
	case kEager:
		if pr := r.matchPosted(&env); pr != nil {
			n := copy(pr.buf, payload)
			r.nic.Node.CopyMem(p, n) // bounce -> user buffer
			finish()
			pr.fut.Set(RecvStatus{Source: env.src, Tag: env.tag, Count: n})
			return
		}
		// Queue the envelope *before* charging the copy: CopyMem parks
		// this engine, and a receive posted during that park must find
		// the message in the unexpected queue (lost-wakeup hazard).
		env.data = append([]byte(nil), payload...)
		e := env
		r.unexpected = append(r.unexpected, &e)
		r.nic.Node.CopyMem(p, len(payload)) // bounce -> unexpected buffer
		finish()
	case kRTS:
		e := env
		if pr := r.matchPosted(&e); pr != nil {
			finish()
			// The pull blocks on RDMA; run it outside the progress handler.
			r.world.k.Spawn(fmt.Sprintf("mpi.rank%d.pull", r.id), func(hp *sim.Proc) {
				n := r.pull(hp, &e, pr.buf)
				pr.fut.Set(RecvStatus{Source: e.src, Tag: e.tag, Count: n})
			})
			return
		}
		r.unexpected = append(r.unexpected, &e)
		finish()
	case kFIN:
		fin := r.fins[env.token]
		delete(r.fins, env.token)
		finish()
		if fin != nil {
			fin.Set(struct{}{})
		}
	default:
		panic("mpi: unknown message kind")
	}
}

// Req is a nonblocking operation handle.
type Req struct {
	fut *sim.Future[RecvStatus]
}

// Wait blocks until the operation completes.
func (req *Req) Wait(p *sim.Proc) RecvStatus { return req.fut.Get(p) }

// Isend starts a nonblocking send. The data buffer must stay untouched
// until Wait returns.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, data []byte) *Req {
	req := &Req{fut: sim.NewFuture[RecvStatus](r.world.k)}
	r.world.k.Spawn(fmt.Sprintf("mpi.rank%d.isend", r.id), func(hp *sim.Proc) {
		r.Send(hp, dst, tag, data)
		req.fut.Set(RecvStatus{Source: r.id, Tag: tag, Count: len(data)})
	})
	return req
}

// Sendrecv runs a send and a receive concurrently (the deadlock-free
// exchange primitive the collectives are built on).
func (r *Rank) Sendrecv(p *sim.Proc, dst, stag int, sdata []byte, src, rtag int, rbuf []byte) RecvStatus {
	sreq := r.Isend(p, dst, stag, sdata)
	st := r.Recv(p, src, rtag, rbuf)
	sreq.Wait(p)
	return st
}
