package via

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// pair is a two-node VIA testbed with one connected VI pair.
type pair struct {
	k          *sim.Kernel
	prof       *model.Profile
	fab        *fabric.Fabric
	nicA, nicB *NIC
	viA, viB   *VI
}

func newPair(prof *model.Profile) *pair {
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	a := fab.AddNode("a")
	b := fab.AddNode("b")
	pr := NewProvider(fab)
	nicA := pr.NewNIC(a)
	nicB := pr.NewNIC(b)
	viA := nicA.NewVI(nicA.NewCQ("a.scq"), nicA.NewCQ("a.rcq"))
	viB := nicB.NewVI(nicB.NewCQ("b.scq"), nicB.NewCQ("b.rcq"))
	Connect(viA, viB)
	return &pair{k: k, prof: prof, fab: fab, nicA: nicA, nicB: nicB, viA: viA, viB: viB}
}

func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i%101)
	}
}

func TestSendRecvDataIntegrity(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	const n = 100000 // multi-cell
	var recvLen int
	var got []byte
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, n+100))
		d := &Descriptor{Region: r, Offset: 50, Len: n + 10}
		if err := p2.viB.PostRecv(p, d); err != nil {
			t.Error(err)
			return
		}
		c := p2.viB.RecvCQ.Wait(p)
		if c.Err != nil {
			t.Errorf("recv completion err: %v", c.Err)
		}
		recvLen = c.Len
		got = append([]byte(nil), r.buf[50:50+n]...)
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, n))
		fill(r.buf, 7)
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: n}); err != nil {
			t.Error(err)
			return
		}
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != nil {
			t.Errorf("send completion err: %v", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvLen != n {
		t.Fatalf("recv len %d, want %d", recvLen, n)
	}
	want := make([]byte, n)
	fill(want, 7)
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted in transit")
	}
}

func TestSmallMessageLatencyCalibration(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	var arrived sim.Time
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 64))
		p2.viB.PostRecv(p, &Descriptor{Region: r, Len: 64})
		p2.viB.RecvCQ.Wait(p)
		arrived = p.Now()
	})
	var posted sim.Time
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 8))
		posted = p.Now()
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 8})
		p2.viA.SendCQ.Wait(p)
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	oneWay := arrived - posted
	// cLAN-class VIA one-way latency: single-digit to low-teens of us.
	if oneWay < 4*sim.Microsecond || oneWay > 15*sim.Microsecond {
		t.Fatalf("one-way latency %v, want 4-15us (cLAN class)", oneWay)
	}
}

// TestStreamingBandwidthCalibration checks that pipelined large sends reach
// the ~100 MB/s the era's hardware delivered (and never exceed link rate).
func TestStreamingBandwidthCalibration(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	const (
		msg   = 64 << 10
		count = 64
	)
	var start, end sim.Time
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, msg))
		for i := 0; i < count; i++ {
			p2.viB.PostRecv(p, &Descriptor{Region: r, Len: msg})
		}
		for i := 0; i < count; i++ {
			if c := p2.viB.RecvCQ.Wait(p); c.Err != nil {
				t.Errorf("recv %d: %v", i, c.Err)
			}
		}
		end = p.Now()
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, msg))
		start = p.Now()
		for i := 0; i < count; i++ {
			p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: msg})
		}
		for i := 0; i < count; i++ {
			p2.viA.SendCQ.Wait(p)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(msg*count) / (end - start).Seconds()
	if bw < 80e6 {
		t.Fatalf("streaming bandwidth %.1f MB/s, want >= 80 MB/s", bw/1e6)
	}
	if bw > p2.prof.LinkBandwidth {
		t.Fatalf("streaming bandwidth %.1f MB/s exceeds link rate", bw/1e6)
	}
}

func TestRecvFIFOMatching(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	sizes := []int{100, 2000, 30}
	var lens []int
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 4096*3))
		for i := range sizes {
			p2.viB.PostRecv(p, &Descriptor{Region: r, Offset: i * 4096, Len: 4096, Ctx: i})
		}
		for range sizes {
			c := p2.viB.RecvCQ.Wait(p)
			if c.Err != nil {
				t.Error(c.Err)
			}
			lens = append(lens, c.Len)
			// FIFO: descriptor i must carry message i.
			if c.Desc.Ctx.(int) != len(lens)-1 {
				t.Errorf("descriptor order broken: got ctx %v at pos %d", c.Desc.Ctx, len(lens)-1)
			}
		}
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 4096))
		for _, s := range sizes {
			p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: s})
			p2.viA.SendCQ.Wait(p) // keep wire order deterministic
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lens) != fmt.Sprint(sizes) {
		t.Fatalf("lens %v, want %v", lens, sizes)
	}
}

func TestRecvUnderrunIsError(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 8))
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 8})
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != ErrRecvUnderrun {
			t.Errorf("sender err = %v, want underrun", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if p2.viB.errState != ErrRecvUnderrun {
		t.Fatalf("receiver VI err = %v", p2.viB.errState)
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 16))
		p2.viB.PostRecv(p, &Descriptor{Region: r, Len: 16})
		c := p2.viB.RecvCQ.Wait(p)
		if c.Err != ErrRecvTooSmall {
			t.Errorf("recv err = %v, want too-small", c.Err)
		}
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 64})
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != ErrRecvTooSmall {
			t.Errorf("send err = %v, want too-small", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAWrite(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	const n = 50000
	var target *Region
	ready := sim.NewFuture[MemHandle](p2.k)
	p2.k.Spawn("target", func(p *sim.Proc) {
		target = p2.nicB.Register(p, make([]byte, n+64))
		ready.Set(target.Handle)
	})
	p2.k.Spawn("writer", func(p *sim.Proc) {
		h := ready.Get(p)
		r := p2.nicA.Register(p, make([]byte, n))
		fill(r.buf, 3)
		err := p2.viA.PostSend(p, &Descriptor{
			Op: OpRDMAWrite, Region: r, Len: n,
			RemoteHandle: h, RemoteOffset: 64,
		})
		if err != nil {
			t.Error(err)
			return
		}
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != nil || c.Len != n {
			t.Errorf("rdma write completion: len=%d err=%v", c.Len, c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	fill(want, 3)
	if !bytes.Equal(target.buf[64:64+n], want) {
		t.Fatal("rdma write data mismatch")
	}
	// One-sided: the target must have no completions and an intact VI.
	if p2.viB.RecvCQ.ch.Len() != 0 || p2.viB.errState != nil {
		t.Fatal("rdma write disturbed the target VI")
	}
}

func TestRDMAWriteProtectionViolation(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("writer", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		// Bogus handle.
		p2.viA.PostSend(p, &Descriptor{
			Op: OpRDMAWrite, Region: r, Len: 64,
			RemoteHandle: 9999, RemoteOffset: 0,
		})
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != ErrProtection {
			t.Errorf("err = %v, want protection violation", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAWriteBoundsViolation(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	ready := sim.NewFuture[MemHandle](p2.k)
	p2.k.Spawn("target", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 100))
		ready.Set(r.Handle)
	})
	p2.k.Spawn("writer", func(p *sim.Proc) {
		h := ready.Get(p)
		r := p2.nicA.Register(p, make([]byte, 200))
		p2.viA.PostSend(p, &Descriptor{
			Op: OpRDMAWrite, Region: r, Len: 200, // exceeds remote region
			RemoteHandle: h, RemoteOffset: 0,
		})
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != ErrProtection {
			t.Errorf("err = %v, want protection violation", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMARead(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	const n = 70000
	ready := sim.NewFuture[MemHandle](p2.k)
	p2.k.Spawn("target", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, n))
		fill(r.buf, 9)
		ready.Set(r.Handle)
	})
	p2.k.Spawn("reader", func(p *sim.Proc) {
		h := ready.Get(p)
		r := p2.nicA.Register(p, make([]byte, n))
		err := p2.viA.PostSend(p, &Descriptor{
			Op: OpRDMARead, Region: r, Len: n,
			RemoteHandle: h, RemoteOffset: 0,
		})
		if err != nil {
			t.Error(err)
			return
		}
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != nil || c.Len != n {
			t.Errorf("rdma read completion: len=%d err=%v", c.Len, c.Err)
			return
		}
		want := make([]byte, n)
		fill(want, 9)
		if !bytes.Equal(r.buf, want) {
			t.Error("rdma read data mismatch")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	// Target CPU must be untouched beyond registration (one-sided).
	reg := p2.prof.RegCost(n)
	if busy := p2.nicB.Node.CPU.BusyTime(); busy > reg+sim.Microsecond {
		t.Fatalf("target CPU busy %v; RDMA read should not involve it (reg cost %v)", busy, reg)
	}
}

func TestRDMAReadProtectionViolation(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("reader", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		p2.viA.PostSend(p, &Descriptor{
			Op: OpRDMARead, Region: r, Len: 64,
			RemoteHandle: 1234, RemoteOffset: 0,
		})
		c := p2.viA.SendCQ.Wait(p)
		if c.Err != ErrProtection {
			t.Errorf("err = %v, want protection violation", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostValidation(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("p", func(p *sim.Proc) {
		rA := p2.nicA.Register(p, make([]byte, 64))
		rB := p2.nicB.Register(p, make([]byte, 64))

		// Foreign region.
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: rB, Len: 8}); err != ErrInvalidRegion {
			t.Errorf("foreign region: %v", err)
		}
		// Bounds.
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: rA, Offset: 60, Len: 8}); err != ErrBounds {
			t.Errorf("bounds: %v", err)
		}
		// Deregistered region.
		p2.nicA.Deregister(p, rA)
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: rA, Len: 8}); err != ErrInvalidRegion {
			t.Errorf("deregistered: %v", err)
		}
		// Unconnected VI.
		loneCQ := p2.nicA.NewCQ("lone")
		lone := p2.nicA.NewVI(loneCQ, loneCQ)
		r2 := p2.nicA.Register(p, make([]byte, 8))
		if err := lone.PostSend(p, &Descriptor{Op: OpSend, Region: r2, Len: 8}); err != ErrNotConnected {
			t.Errorf("unconnected: %v", err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationCostCharged(t *testing.T) {
	prof := model.CLAN1998()
	p2 := newPair(prof)
	p2.k.Spawn("p", func(p *sim.Proc) {
		p2.nicA.Register(p, make([]byte, 1<<20))
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := prof.RegCost(1 << 20)
	if busy := p2.nicA.Node.CPU.BusyTime(); busy != want {
		t.Fatalf("cpu busy %v, want %v", busy, want)
	}
}

// A record registered again after DropCached gets a fresh handle: a peer
// still naming the old one is refused, and the NIC counts one live
// registration. A record that is still registered cannot be reused.
func TestRegisterCachedInReusesRecord(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	base := p2.nicB.Regions()
	var rec Region
	old := p2.nicB.RegisterCachedIn(&rec, make([]byte, 64)).Handle
	p2.nicB.DropCached(&rec)
	target := make([]byte, 64)
	if r := p2.nicB.RegisterCachedIn(&rec, target); r != &rec || r.Handle == old || !r.Valid() {
		t.Fatalf("re-registered record: %p (want %p), handle %d (old %d), valid %v", r, &rec, r.Handle, old, r.Valid())
	}
	if n := p2.nicB.Regions() - base; n != 1 {
		t.Fatalf("%d live registrations after reuse, want 1", n)
	}
	p2.k.Spawn("writer", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 64))
		fill(r.buf, 5)
		for _, tc := range []struct {
			h    MemHandle
			want error
		}{{old, ErrProtection}, {rec.Handle, nil}} {
			p2.viA.PostSend(p, &Descriptor{Op: OpRDMAWrite, Region: r, Len: 64, RemoteHandle: tc.h})
			if c := p2.viA.SendCQ.Wait(p); c.Err != tc.want {
				t.Errorf("rdma write to handle %d: %v, want %v", tc.h, c.Err, tc.want)
			}
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64)
	fill(want, 5)
	if !bytes.Equal(target, want) {
		t.Error("rdma write through the new handle did not land")
	}
	defer func() {
		if recover() == nil {
			t.Error("RegisterCachedIn of a registered record did not panic")
		}
	}()
	p2.nicB.RegisterCachedIn(&rec, make([]byte, 64))
}

func TestSenderCPUFreeDuringTransfer(t *testing.T) {
	// The OS-bypass claim: after the doorbell, the host CPU does nothing
	// while the NIC moves a megabyte.
	prof := model.CLAN1998()
	p2 := newPair(prof)
	const n = 1 << 20
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, n))
		p2.viB.PostRecv(p, &Descriptor{Region: r, Len: n})
		p2.viB.RecvCQ.Wait(p)
	})
	var cpuAfterPost sim.Time
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, n))
		regBusy := p2.nicA.Node.CPU.BusyTime()
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: n})
		cpuAfterPost = p2.nicA.Node.CPU.BusyTime() - regBusy
		p2.viA.SendCQ.Wait(p)
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if cpuAfterPost != prof.DoorbellCost {
		t.Fatalf("posting 1MB cost %v CPU, want just the doorbell (%v)", cpuAfterPost, prof.DoorbellCost)
	}
	total := p2.nicA.Node.CPU.BusyTime()
	// Whole-transfer sender CPU: registration + doorbell + wakeup. No
	// per-byte term.
	want := prof.RegCost(n) + prof.DoorbellCost + prof.WakeupLatency
	if total != want {
		t.Fatalf("sender CPU %v, want %v (no per-byte cost)", total, want)
	}
}

func TestViaDeterminism(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		p2 := newPair(model.CLAN1998())
		p2.k.Spawn("recv", func(p *sim.Proc) {
			r := p2.nicB.Register(p, make([]byte, 8192))
			for i := 0; i < 8; i++ {
				p2.viB.PostRecv(p, &Descriptor{Region: r, Len: 8192})
			}
			for i := 0; i < 8; i++ {
				c := p2.viB.RecvCQ.Wait(p)
				fmt.Fprintf(&sb, "%d@%v ", c.Len, p.Now())
			}
		})
		p2.k.Spawn("send", func(p *sim.Proc) {
			r := p2.nicA.Register(p, make([]byte, 8192))
			for i := 0; i < 8; i++ {
				p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 1024 * (i + 1)})
			}
			for i := 0; i < 8; i++ {
				p2.viA.SendCQ.Wait(p)
			}
		})
		if err := p2.k.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic VIA run:\n%s\n%s", a, b)
	}
}

func TestZeroLengthSend(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, 8))
		p2.viB.PostRecv(p, &Descriptor{Region: r, Len: 8})
		c := p2.viB.RecvCQ.Wait(p)
		if c.Err != nil || c.Len != 0 {
			t.Errorf("zero-length recv: len=%d err=%v", c.Len, c.Err)
		}
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, 8))
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: 0})
		if c := p2.viA.SendCQ.Wait(p); c.Err != nil {
			t.Errorf("zero-length send err: %v", c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	const n = 20000
	p2.k.Spawn("recv", func(p *sim.Proc) {
		r := p2.nicB.Register(p, make([]byte, n))
		p2.viB.PostRecv(p, &Descriptor{Region: r, Len: n})
		p2.viB.RecvCQ.Wait(p)
	})
	p2.k.Spawn("send", func(p *sim.Proc) {
		r := p2.nicA.Register(p, make([]byte, n))
		p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Len: n})
		p2.viA.SendCQ.Wait(p)
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	sa, sb := p2.nicA.Stats(), p2.nicB.Stats()
	if sa.SendsPosted != 1 || sa.BytesOut != n {
		t.Fatalf("sender stats %+v", sa)
	}
	if sb.RecvsPosted != 1 || sb.BytesIn != n {
		t.Fatalf("receiver stats %+v", sb)
	}
	cells := (n + p2.prof.CellSize - p2.prof.CellHeader - 1) / (p2.prof.CellSize - p2.prof.CellHeader)
	if sa.CellsOut != int64(cells) {
		t.Fatalf("cells out %d, want %d", sa.CellsOut, cells)
	}
}

// TestNICsHoldNoGoroutines: a NIC's send, tx and rx engines are kernel
// engines, so the NICs hold no worker goroutine before or after traffic.
// One app proc moves a multi-cell send, an RDMA write and an RDMA read;
// the kernel then holds its one worker and nothing else.
func TestNICsHoldNoGoroutines(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	if live, g := p2.k.Live(), p2.k.Goroutines(); live != 6 || g != 0 {
		t.Fatalf("before traffic: %d live, %d goroutines; want the 6 NIC engines and none", live, g)
	}
	const n = 70000
	p2.k.Spawn("app", func(p *sim.Proc) {
		src := p2.nicA.Register(p, make([]byte, n))
		dst := p2.nicB.Register(p, make([]byte, n))
		fill(src.buf, 3)
		if err := p2.viB.PrepostRecv(&Descriptor{Region: dst, Len: n}); err != nil {
			t.Error(err)
			return
		}
		for _, d := range []*Descriptor{
			{Op: OpSend, Region: src, Len: n},
			{Op: OpRDMAWrite, Region: src, Len: n, RemoteHandle: dst.Handle},
			{Op: OpRDMARead, Region: src, Len: n, RemoteHandle: dst.Handle},
		} {
			if err := p2.viA.PostSend(p, d); err != nil {
				t.Error(err)
				return
			}
			if c := p2.viA.SendCQ.Wait(p); c.Err != nil || c.Len != n {
				t.Errorf("%v: len %d err %v", d.Op, c.Len, c.Err)
			}
		}
		if c := p2.viB.RecvCQ.Wait(p); c.Err != nil || c.Len != n {
			t.Errorf("recv: len %d err %v", c.Len, c.Err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if live, g := p2.k.Live(), p2.k.Goroutines(); live != 6 || g != 1 {
		t.Errorf("after traffic: %d live, %d goroutines; want the 6 NIC engines and the app's 1", live, g)
	}
	if s := p2.nicA.Stats(); s.CellsOut == 0 || s.CellsIn == 0 {
		t.Errorf("no traffic moved: %+v", s)
	}
}
