package via

import (
	"bytes"
	"testing"

	"dafsio/internal/model"
	"dafsio/internal/sim"
)

const ringSlot = 64

// A ring's slots are separate windows: a descriptor that crosses from one
// into the next is out of bounds, however far inside the ring it lies. A
// message into one slot materialises that slot only.
func TestRingDescriptorStaysInOneSlot(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	want := make([]byte, 16)
	fill(want, 4)
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.RegisterRing(p, new(Region), make([][]byte, 4), ringSlot)
		if err := p2.viB.PostRecv(p, &Descriptor{Region: r, Offset: ringSlot - 8, Len: 16}); err != ErrBounds {
			t.Errorf("receive across a slot boundary: %v, want ErrBounds", err)
		}
		if err := p2.viB.PostRecv(p, &Descriptor{Region: r, Offset: 2 * ringSlot, Len: ringSlot}); err != nil {
			t.Error(err)
			return
		}
		if c := p2.viB.RecvCQ.Wait(p); c.Err != nil || c.Len != len(want) {
			t.Errorf("recv completion: len=%d err=%v", c.Len, c.Err)
		}
		if !bytes.Equal(r.Slot(2)[:len(want)], want) {
			t.Error("message did not land in slot 2")
		}
		if m := p2.nicB.Provider().RingMem(); m.Live != 2*ringSlot {
			t.Errorf("live ring bytes %d, want the receive slot and the send slot (%d)", m.Live, 2*ringSlot)
		}
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.RegisterRing(p, new(Region), make([][]byte, 4), ringSlot)
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Offset: 3*ringSlot - 1, Len: 2}); err != ErrBounds {
			t.Errorf("send across a slot boundary: %v, want ErrBounds", err)
		}
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Offset: 4 * ringSlot, Len: 0}); err != ErrBounds {
			t.Errorf("send past the last slot: %v, want ErrBounds", err)
		}
		copy(r.Slot(1), want)
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Offset: ringSlot, Len: len(want)}); err != nil {
			t.Error(err)
			return
		}
		if c := p2.viA.SendCQ.Wait(p); c.Err != nil {
			t.Errorf("send completion: %v", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// An RDMA write or read that would cross a slot boundary of the target
// ring fails the remote protection check; one inside a slot goes through.
func TestRingRDMAStaysInOneSlot(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	var target *Region
	ready := sim.NewFuture[MemHandle](p2.k)
	p2.k.Spawn("target", func(p *sim.Proc) {
		target = p2.nicB.RegisterRing(p, new(Region), make([][]byte, 4), ringSlot)
		fill(target.Slot(3), 6)
		ready.Set(target.Handle)
	})
	p2.k.Spawn("initiator", func(p *sim.Proc) {
		h := ready.Get(p)
		r := p2.nicA.Register(p, make([]byte, 32))
		fill(r.Bytes(), 2)
		for _, tc := range []struct {
			op      Op
			off     int
			wantErr error
		}{
			{OpRDMAWrite, ringSlot - 16, ErrProtection},
			{OpRDMARead, 3*ringSlot - 8, ErrProtection},
			{OpRDMAWrite, ringSlot, nil},
			{OpRDMARead, 3 * ringSlot, nil},
		} {
			if err := p2.viA.PostSend(p, &Descriptor{Op: tc.op, Region: r, Len: 32, RemoteHandle: h, RemoteOffset: tc.off}); err != nil {
				t.Error(err)
				return
			}
			if c := p2.viA.SendCQ.Wait(p); c.Err != tc.wantErr {
				t.Errorf("%v of 32 B at %d: %v, want %v", tc.op, tc.off, c.Err, tc.wantErr)
			}
		}
		if !bytes.Equal(r.Bytes(), target.Slot(3)[:32]) {
			t.Error("rdma read did not fetch slot 3")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 32)
	fill(want, 2)
	if !bytes.Equal(target.Slot(1)[:32], want) {
		t.Fatal("rdma write did not land in slot 1")
	}
}

// Release clears what the message wrote and hands the bytes back, so a slot
// materialised again reads as zeros — and a fresh slot of another ring that
// reuses the bytes does too.
func TestReleasedSlotReadsZero(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	prov := p2.nicA.Provider()
	a := p2.nicA.RegisterCachedRing(new(Region), make([][]byte, 2), ringSlot)
	b := p2.nicA.RegisterCachedRing(new(Region), make([][]byte, 2), ringSlot)
	zero := make([]byte, ringSlot)
	fill(a.Slot(0), 1)
	a.Release(0, ringSlot)
	if m := prov.RingMem(); m.Live != 0 || m.Idle != slabSlots*ringSlot {
		t.Fatalf("after release: %+v, want nothing live and one slab idle", m)
	}
	if !bytes.Equal(a.Slot(0), zero) {
		t.Error("released slot reads back its old bytes")
	}
	fill(a.Slot(0), 1)
	a.Release(0, ringSlot)
	if !bytes.Equal(b.Slot(1), zero) {
		t.Error("another ring's slot reads the released bytes")
	}
	// A release of a slot that holds nothing is a no-op.
	a.Release(1, ringSlot)
	if m := prov.RingMem(); m.Live != ringSlot || m.Idle != (slabSlots-1)*ringSlot {
		t.Fatalf("after releasing an empty slot: %+v", m)
	}
}

// A deregistered ring's slots may still be referenced by a host slice or a
// posted descriptor, so they never go back to the free list: releasing one
// is a no-op, and no other ring is handed its bytes.
func TestDeregisteredRingSlotsNotPooled(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	prov := p2.nicA.Provider()
	p2.k.Spawn("a", func(p *sim.Proc) {
		dead := p2.nicA.RegisterRing(p, new(Region), make([][]byte, 2), ringSlot)
		held := dead.Slot(0)
		fill(held, 8)
		before := prov.RingMem()
		p2.nicA.Deregister(p, dead)
		dead.Release(0, ringSlot)
		if m := prov.RingMem(); m.Idle != before.Idle || m.Live != 0 {
			t.Errorf("after deregistering and releasing: %+v, want idle %d and nothing live", m, before.Idle)
		}
		live := p2.nicA.RegisterRing(p, new(Region), make([][]byte, 4*slabSlots), ringSlot)
		for i := range 4 * slabSlots {
			if s := live.Slot(i); &s[0] == &held[0] {
				t.Fatalf("slot %d of a new ring reuses a deregistered ring's bytes", i)
			}
		}
		want := make([]byte, ringSlot)
		fill(want, 8)
		if !bytes.Equal(held, want) {
			t.Error("the deregistered ring's slot changed under its holder")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A ring is charged as one registration of all its slots' bytes, exactly
// what registering one flat buffer of that size costs.
func TestRingRegistrationCost(t *testing.T) {
	const slots, size = 8, 8720
	busy := func(register func(p *sim.Proc, n *NIC)) sim.Time {
		p2 := newPair(model.CLAN1998())
		p2.k.Spawn("p", func(p *sim.Proc) { register(p, p2.nicA) })
		if err := p2.k.Run(); err != nil {
			t.Fatal(err)
		}
		return p2.fab.Node(0).CPU.BusyTime()
	}
	ring := busy(func(p *sim.Proc, n *NIC) { n.RegisterRing(p, new(Region), make([][]byte, slots), size) })
	flat := busy(func(p *sim.Proc, n *NIC) { n.Register(p, make([]byte, slots*size)) })
	if ring != flat || ring != model.CLAN1998().RegCost(slots*size) {
		t.Fatalf("ring registration cost %v, flat %v, want both %v", ring, flat, model.CLAN1998().RegCost(slots*size))
	}
}

// A message holds only its class of the provider's pool: n bytes take
// class(n) in the sender's slot, where the host grows it, and in the
// receiver's, where the NIC sizes it from the message's total, and each
// cell's payload takes the class of the bytes it carries. A cell is
// sampled in flight through the ledger; a whole slot is the last class.
func TestMessageTakesItsClass(t *testing.T) {
	const size = 8720 // a DAFS session's slot
	prof := model.CLAN1998()
	cellMax := prof.CellSize - prof.CellHeader
	for _, n := range []int{1, 60, 256, 257, 548, 3000, 4097, 6000, size} {
		p2 := newPair(prof)
		prov := p2.nicA.Provider()
		want := make([]byte, n)
		fill(want, byte(n))
		cells := make(map[int]bool)
		done := false
		p2.k.Spawn("recv", func(p *sim.Proc) {
			r := p2.nicB.RegisterRing(p, new(Region), make([][]byte, 2), size)
			if err := p2.viB.PostRecv(p, &Descriptor{Region: r, Offset: size, Len: size}); err != nil {
				t.Error(err)
				return
			}
			c := p2.viB.RecvCQ.Wait(p)
			if s := r.Slot(1); c.Err != nil || len(s) != classOf(n, size) || !bytes.Equal(s[:n], want) {
				t.Errorf("%d B: received into %d B (err %v), want class %d holding the message", n, len(s), c.Err, classOf(n, size))
			}
		})
		p2.k.Spawn("send", func(p *sim.Proc) {
			r := p2.nicA.RegisterRing(p, new(Region), make([][]byte, 2), size)
			copy(r.Grow(0, n), want)
			if s := r.Slot(0); len(s) != classOf(n, size) {
				t.Errorf("%d B: sender's slot holds %d B, want %d", n, len(s), classOf(n, size))
			}
			if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: n}); err != nil {
				t.Error(err)
				return
			}
			p2.viA.SendCQ.Wait(p)
			done = true
		})
		p2.k.Spawn("probe", func(p *sim.Proc) {
			for !done {
				if m := prov.RingMem(); m.Cells > 0 {
					cells[m.Cells] = true
				}
				p.Wait(10 * sim.Nanosecond)
			}
		})
		if err := p2.k.Run(); err != nil {
			t.Fatal(err)
		}
		inFlight := map[int]bool{classOf(n, cellMax): true}
		if n > cellMax {
			// Two cells: the full one and the rest, each its own class,
			// one or both in flight at a time.
			rest := classOf(n-cellMax, cellMax)
			inFlight = map[int]bool{cellMax: true, rest: true, cellMax + rest: true}
		}
		for c := range cells {
			if !inFlight[c] {
				t.Errorf("%d B: cell payloads in flight held %d B, want one of %v", n, c, inFlight)
			}
		}
		if len(cells) == 0 {
			t.Errorf("%d B: no cell payload seen in flight", n)
		}
		if m := prov.RingMem(); m.Cells != 0 {
			t.Errorf("%d B: %d B of cell payload left after the message", n, m.Cells)
		}
	}
}
