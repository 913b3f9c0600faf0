package fabric

import (
	"testing"

	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// claimAll claims a match-everything test interface on a node.
func claimAll(n *Node) *Iface {
	return n.Claim("test", func(any) bool { return true })
}

func testProfile() *model.Profile {
	p := model.CLAN1998()
	// Round numbers for exact assertions: 100 MB/s link, 10us latency.
	p.LinkBandwidth = 100e6
	p.WireLatency = 10 * sim.Microsecond
	return p
}

func TestPointToPointTiming(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testProfile())
	a := f.AddNode("a")
	b := f.AddNode("b")

	bIf := claimAll(b)
	var arrived sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		if _, ok := bIf.Recv(p); !ok {
			t.Error("recv failed")
		}
		arrived = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		a.Send(p, Frame{Dst: b.ID, Bytes: 100000, Payload: "x"})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 100000 B at 100 MB/s = 1ms tx serialization, +10us wire,
	// +1ms rx serialization.
	want := 2*sim.Millisecond + 10*sim.Microsecond
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
	if f.framesSent != 1 || f.BytesSent() != 100000 {
		t.Fatalf("stats frames=%d bytes=%d", f.framesSent, f.BytesSent())
	}
}

func TestInOrderDelivery(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testProfile())
	a := f.AddNode("a")
	b := f.AddNode("b")

	bIf := claimAll(b)
	var got []int
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			fr, _ := bIf.Recv(p)
			got = append(got, fr.Payload.(int))
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			a.Send(p, Frame{Dst: b.ID, Bytes: 64 + i, Payload: i})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestNto1Congestion checks that many senders to one receiver are limited by
// the receiver's link: aggregate goodput ~= link bandwidth, not N*link.
func TestNto1Congestion(t *testing.T) {
	k := sim.NewKernel()
	prof := testProfile()
	f := New(k, prof)
	dst := f.AddNode("server")
	dstIf := claimAll(dst)
	const (
		nsend   = 4
		perNode = 50
		fsize   = 100000
	)
	for i := 0; i < nsend; i++ {
		src := f.AddNode("client")
		k.Spawn("tx", func(p *sim.Proc) {
			for j := 0; j < perNode; j++ {
				src.Send(p, Frame{Dst: dst.ID, Bytes: fsize})
			}
		})
	}
	var done sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < nsend*perNode; i++ {
			dstIf.Recv(p)
		}
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(nsend * perNode * fsize)
	minTime := sim.TransferTime(total, prof.LinkBandwidth)
	if done < minTime {
		t.Fatalf("finished in %v, faster than receiver link allows (%v)", done, minTime)
	}
	if done > minTime+minTime/10+sim.Millisecond {
		t.Fatalf("finished in %v, want near %v (rx-link bound)", done, minTime)
	}
}

// TestParallelPairsDontInterfere checks two disjoint node pairs transfer
// concurrently (switch is non-blocking).
func TestParallelPairsDontInterfere(t *testing.T) {
	k := sim.NewKernel()
	prof := testProfile()
	f := New(k, prof)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		src, dst := f.AddNode("s"), f.AddNode("d")
		dstIf := claimAll(dst)
		k.Spawn("tx", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				src.Send(p, Frame{Dst: dst.ID, Bytes: 100000})
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				dstIf.Recv(p)
			}
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Each pair: 10 frames of 1ms, pipelined tx/rx -> ~11ms; if the pairs
	// serialized against each other it would be ~22ms.
	for _, e := range ends {
		if e > 15*sim.Millisecond {
			t.Fatalf("pair finished at %v; pairs appear to interfere", e)
		}
	}
}

func TestClaimTwicePanics(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testProfile())
	n := f.AddNode("n")
	n.Claim("via", func(any) bool { return true })
	n.Claim("kstack", func(any) bool { return true }) // distinct owners OK
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate owner claim")
		}
	}()
	n.Claim("via", func(any) bool { return true })
}

func TestInvalidProfilePanics(t *testing.T) {
	k := sim.NewKernel()
	p := model.CLAN1998()
	p.LinkBandwidth = -1
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid profile")
		}
	}()
	New(k, p)
}

func TestCopyMemChargesCPU(t *testing.T) {
	k := sim.NewKernel()
	prof := testProfile()
	prof.MemCopyBW = 100e6
	f := New(k, prof)
	n := f.AddNode("n")
	k.Spawn("p", func(p *sim.Proc) {
		n.CopyMem(p, 100000) // 1ms at 100MB/s
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.CPU.BusyTime(); got != sim.Millisecond {
		t.Fatalf("cpu busy %v, want 1ms", got)
	}
}

func TestUnclaimedPayloadDropped(t *testing.T) {
	// A frame whose payload no interface matches is dropped without
	// disturbing other traffic.
	k := sim.NewKernel()
	f := New(k, testProfile())
	a, b := f.AddNode("a"), f.AddNode("b")
	ints := b.Claim("ints", func(pl any) bool { _, ok := pl.(int); return ok })
	k.Spawn("rx", func(p *sim.Proc) {
		fr, ok := ints.Recv(p)
		if !ok || fr.Payload.(int) != 42 {
			t.Errorf("recv %v %v", fr, ok)
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		a.Send(p, Frame{Dst: b.ID, Bytes: 64, Payload: "string nobody wants"})
		a.Send(p, Frame{Dst: b.ID, Bytes: 64, Payload: 42})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDemuxRoutesByType(t *testing.T) {
	// Two interfaces on one node each get exactly their own traffic.
	k := sim.NewKernel()
	f := New(k, testProfile())
	a, b := f.AddNode("a"), f.AddNode("b")
	ints := b.Claim("ints", func(pl any) bool { _, ok := pl.(int); return ok })
	strs := b.Claim("strs", func(pl any) bool { _, ok := pl.(string); return ok })
	var gotInts, gotStrs int
	k.Spawn("rxi", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, ok := ints.Recv(p); ok {
				gotInts++
			}
		}
	})
	k.Spawn("rxs", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, ok := strs.Recv(p); ok {
				gotStrs++
			}
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			a.Send(p, Frame{Dst: b.ID, Bytes: 64, Payload: i})
		}
		a.Send(p, Frame{Dst: b.ID, Bytes: 64, Payload: "x"})
		a.Send(p, Frame{Dst: b.ID, Bytes: 64, Payload: "y"})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotInts != 3 || gotStrs != 2 {
		t.Fatalf("demux: ints=%d strs=%d", gotInts, gotStrs)
	}
}

func TestBadFramePanics(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, testProfile())
	a := f.AddNode("a")
	k.Spawn("tx", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("zero-byte frame did not panic")
			}
		}()
		a.Send(p, Frame{Dst: a.ID, Bytes: 0})
	})
	_ = k.Run()
}
