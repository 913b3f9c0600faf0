package via

import (
	"bytes"
	"testing"

	"dafsio/internal/fault"
	"dafsio/internal/model"
	"dafsio/internal/sim"
)

func TestVIErrorStateBlocksPostSend(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 8))
		// First send hits an empty receive queue -> VI error at peer, and
		// the sender's completion reports the underrun.
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 8})
		if c := p2.viA.SendCQ.Wait(p); c.Err != ErrRecvUnderrun {
			t.Errorf("first send err: %v", c.Err)
		}
		// Posting a receive on the broken peer VI fails all queued recvs;
		// a subsequent send into the erred VI again reports an error.
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 8})
		if c := p2.viA.SendCQ.Wait(p); c.Err == nil {
			t.Error("send into erred VI succeeded")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if p2.viB.errState == nil {
		t.Fatal("peer VI not in error state")
	}
}

func TestErrorVIFailsPostedRecvs(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 64))
		// One recv posted; two messages arrive; the second underruns,
		// failing the VI.
		p2.viB.PostRecv(p, &Descriptor{Region: r, Len: 64})
		c1 := p2.viB.RecvCQ.Wait(p)
		if c1.Err != nil {
			t.Errorf("first recv: %v", c1.Err)
		}
		// After the error, newly posted receives complete with errors
		// when the VI is already failed... post and observe state.
		if p2.viB.errState == nil {
			// The error may arrive after this check; wait for the
			// second message's effect by idling.
			p.Wait(sim.Millisecond)
		}
		if p2.viB.errState == nil {
			t.Error("VI not failed after underrun")
		}
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 64})
		p2.viA.SendCQ.Wait(p)
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 64})
		p2.viA.SendCQ.Wait(p)
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQPoll(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("app", func(p *sim.Proc) {
		if _, ok := p2.viA.SendCQ.Poll(); ok {
			t.Error("poll on empty CQ returned a completion")
		}
		r := p2.nicA.Register(p, make([]byte, 8))
		rb := p2.nicB.Register(p, make([]byte, 8))
		p2.viB.PostRecv(p, &Descriptor{Region: rb, Len: 8})
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 8})
		p.Wait(sim.Millisecond) // let it complete
		if c, ok := p2.viA.SendCQ.Poll(); !ok || c.Err != nil {
			t.Errorf("poll after completion: ok=%v err=%v", ok, c.Err)
		}
		if p2.viA.SendCQ.ch.Len() != 0 {
			t.Error("CQ not drained")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPrepostRecvValidation(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("app", func(p *sim.Proc) {
		rB := p2.nicB.Register(p, make([]byte, 8))
		if err := p2.viA.PrepostRecv(&Descriptor{Region: rB, Len: 8}); err != ErrInvalidRegion {
			t.Errorf("foreign region: %v", err)
		}
		rA := p2.nicA.Register(p, make([]byte, 8))
		if err := p2.viA.PrepostRecv(&Descriptor{Region: rA, Offset: 4, Len: 8}); err != ErrBounds {
			t.Errorf("bounds: %v", err)
		}
		if err := p2.viA.PrepostRecv(&Descriptor{Region: rA, Len: 8}); err != nil {
			t.Errorf("valid prepost: %v", err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAStatsCounted(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	ready := sim.NewFuture[MemHandle](p2.k)
	p2.k.Spawn("b", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 4096))
		ready.Set(r.Handle)
	})
	p2.k.Spawn("a", func(p *sim.Proc) {
		h := ready.Get(p)
		r := p2.nicA.Register(p, make([]byte, 4096))
		p2.viA.PostSend(p, &Descriptor{Op: OpRDMAWrite, Region: r, Len: 4096, RemoteHandle: h})
		p2.viA.SendCQ.Wait(p)
		p2.viA.PostSend(p, &Descriptor{Op: OpRDMARead, Region: r, Len: 4096, RemoteHandle: h})
		p2.viA.SendCQ.Wait(p)
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	st := p2.nicA.Stats()
	if st.RDMAWrites != 1 || st.RDMAReads != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDeregisterInvalidatesInFlightUse(t *testing.T) {
	// Posting with a just-deregistered region is rejected at the doorbell.
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("a", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		p2.nicA.Deregister(p, r)
		if r.Valid() {
			t.Error("region still valid")
		}
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 8}); err != ErrInvalidRegion {
			t.Errorf("post with dead region: %v", err)
		}
		// Deregistering twice is harmless.
		p2.nicA.Deregister(p, r)
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A copy of a region names the same handle and memory, but it is not the
// registration the NIC holds. The doorbell rejects it while the original is
// registered and after the original is deregistered, and deregistering the
// copy leaves the original registered.
func TestCopiedRegionRejected(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("a", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		cp := *r
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: &cp, Len: 8}); err != ErrInvalidRegion {
			t.Errorf("copy of a registered region: %v, want ErrInvalidRegion", err)
		}
		dup := *r
		p2.nicA.Deregister(p, &dup)
		if !r.Valid() || p2.nicA.Regions() != 1 {
			t.Errorf("deregistering the copy dropped the original (valid %v, %d regions)", r.Valid(), p2.nicA.Regions())
		}
		p2.nicA.Deregister(p, r)
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: &cp, Len: 8}); err != ErrInvalidRegion {
			t.Errorf("copy of a deregistered region: %v, want ErrInvalidRegion", err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackVIRejected(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	cq := p2.nicA.NewCQ("x")
	v1 := p2.nicA.NewVI(cq, cq)
	v2 := p2.nicA.NewVI(cq, cq)
	defer func() {
		if recover() == nil {
			t.Fatal("loopback connect did not panic")
		}
	}()
	Connect(v1, v2)
}

func TestForeignCQRejected(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	cqB := p2.nicB.NewCQ("b")
	defer func() {
		if recover() == nil {
			t.Fatal("foreign CQ did not panic")
		}
	}()
	p2.nicA.NewVI(cqB, cqB)
}

func TestDoubleConnectPanics(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	cqA := p2.nicA.NewCQ("a2")
	cqB := p2.nicB.NewCQ("b2")
	v1 := p2.nicA.NewVI(cqA, cqA)
	v2 := p2.nicB.NewVI(cqB, cqB)
	Connect(v1, v2)
	v3 := p2.nicB.NewVI(cqB, cqB)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	Connect(v1, v3)
}

// Cells are recycled with their payload buffers, so a cell freed twice
// would be handed to two messages at once. The fault injector's drop (the
// sender discards the cell) and duplicate (two frames from one cell) are
// the two places a cell leaves the send-once / receive-once path.
func TestFaultedCellsAreFreedOnce(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	prov := p2.nicA.Provider()
	// Verdicts are per transmitted data cell, drops first: the first cell
	// of message 0 is dropped, the next three (message 0's) are duplicated,
	// and so are the first two of message 1.
	prov.Faults = fault.New(fault.Plan{Events: []fault.Event{
		{At: 1, Kind: fault.DropCell, Node: "a", Count: 1},
		{At: 1, Kind: fault.DupCell, Node: "a", Count: 5},
	}})
	const msgs, n = 4, 30000 // four cells a message
	dst := make([]byte, msgs*n)
	p2.k.Spawn("send", func(p *sim.Proc) {
		target := p2.nicB.RegisterCached(dst)
		src := p2.nicA.Register(p, make([]byte, msgs*n))
		for i := 0; i < msgs; i++ {
			fill(src.buf[i*n:(i+1)*n], byte(i+1))
			err := p2.viA.PostSend(p, &Descriptor{
				Op: OpRDMAWrite, Region: src, Offset: i * n, Len: n,
				RemoteHandle: target.Handle, RemoteOffset: i * n, Ctx: i,
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
		// Message 0 lost a cell: no ack, no completion. The rest complete
		// in order.
		for want := 1; want < msgs; want++ {
			c := p2.viA.SendCQ.Wait(p)
			if c.Err != nil || c.Desc.Ctx.(int) != want {
				t.Errorf("completion %v err=%v, want message %d", c.Desc.Ctx, c.Err, want)
			}
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < msgs; i++ {
		want := make([]byte, n)
		fill(want, byte(i+1))
		if !bytes.Equal(dst[i*n:(i+1)*n], want) {
			t.Errorf("message %d corrupted in transit", i)
		}
	}
	if sent := int(p2.nicA.Stats().CellsOut); len(prov.freeCells) == 0 || len(prov.freeCells) >= sent {
		t.Errorf("%d cells idle after %d data cells sent: cells are not being reused", len(prov.freeCells), sent)
	}
	cells := make(map[*cell]bool)
	bufs := make(map[*byte]bool)
	for _, c := range prov.freeCells {
		if cells[c] {
			t.Fatal("one cell is on the free list twice")
		}
		cells[c] = true
		if cap(c.data) == 0 {
			continue
		}
		b := &c.data[:1][0]
		if bufs[b] {
			t.Fatal("two idle cells share one payload buffer")
		}
		bufs[b] = true
	}
}

// TestNICStateIsRecycled: one descriptor reposted for every message, and
// sequential sends and RDMA reads, leave the receiving NIC one idle
// reassembly state and the read target one idle read-response descriptor,
// each on its free list once, with every message's bytes intact.
func TestNICStateIsRecycled(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	const msgs, n = 6, 20000 // several cells a message
	remote := make([]byte, msgs*n)
	fill(remote, 9)
	p2.k.Spawn("b", func(p *sim.Proc) {
		recv := p2.nicB.Register(p, make([]byte, n))
		d := &Descriptor{Region: recv, Len: n}
		for i := 0; i < msgs; i++ {
			if err := p2.viB.PostRecv(p, d); err != nil {
				t.Error(err)
				return
			}
			c := p2.viB.RecvCQ.Wait(p)
			want := make([]byte, n)
			fill(want, byte(i))
			if c.Err != nil || c.Desc != d || !bytes.Equal(recv.buf, want) {
				t.Errorf("message %d: err=%v or its bytes differ", i, c.Err)
			}
		}
	})
	p2.k.Spawn("a", func(p *sim.Proc) {
		target := p2.nicB.RegisterCached(remote)
		src := p2.nicA.Register(p, make([]byte, n))
		dst := p2.nicA.Register(p, make([]byte, n))
		for i := 0; i < msgs; i++ {
			fill(src.buf, byte(i))
			if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: src, Len: n}); err != nil {
				t.Error(err)
				return
			}
			p2.viA.SendCQ.Wait(p)
			if err := p2.viA.PostSend(p, &Descriptor{Op: OpRDMARead, Region: dst, Len: n, RemoteHandle: target.Handle, RemoteOffset: i * n}); err != nil {
				t.Error(err)
				return
			}
			if c := p2.viA.SendCQ.Wait(p); c.Err != nil || !bytes.Equal(dst.buf, remote[i*n:(i+1)*n]) {
				t.Errorf("read %d: err=%v or its bytes differ", i, c.Err)
			}
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(p2.nicB.freeReasms); got != 1 {
		t.Errorf("receiver holds %d idle reassembly states after %d sequential messages, want 1", got, msgs)
	}
	if got := len(p2.nicB.freeReadResps); got != 1 {
		t.Errorf("read target holds %d idle read-response descriptors after %d sequential reads, want 1", got, msgs)
	}
	if len(p2.nicB.reasm) != 0 {
		t.Errorf("%d reassemblies left open", len(p2.nicB.reasm))
	}
}
