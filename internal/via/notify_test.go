package via

import (
	"slices"
	"strings"
	"testing"

	"dafsio/internal/fabric"
	"dafsio/internal/metrics"
	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// notifyBursts is a scripted arrival pattern: the offsets of each burst's
// completions from the burst's start, the bursts 100 µs apart. Within a
// burst, completions land together and while the handler of an earlier
// one is still charging its CPU time.
var notifyBursts = [][]sim.Time{
	{0, 0, 3 * sim.Microsecond},
	{0, sim.Microsecond},
	{0},
}

// notifyRun is what one consumer made of the script.
type notifyRun struct {
	at   []sim.Time // when the handler took each completion
	lens []int      // and that completion's Len
	busy sim.Time   // host CPU time charged
	live []int      // Kernel.Live() at each burst's start, before its arrivals
	base int        // Kernel.Live() with no consumer at all
}

// runNotifyScript delivers the script to a notify queue, or with waiter set
// to a plain queue drained by a daemon looping on Wait, and records what the
// handler saw. The handler charges 4 µs of CPU, so it yields.
func runNotifyScript(t *testing.T, waiter bool) notifyRun {
	t.Helper()
	p2 := newPair(model.CLAN1998())
	node := p2.nicA.Node
	var r notifyRun
	h := func(p *sim.Proc, c Completion) {
		r.at = append(r.at, p.Now())
		r.lens = append(r.lens, c.Len)
		node.Compute(p, 4*sim.Microsecond)
	}
	var cq *CQ
	if waiter {
		cq = p2.nicA.NewCQ("wait")
		p2.k.SpawnDaemon("wait.loop", func(p *sim.Proc) {
			for {
				h(p, cq.Wait(p))
			}
		})
	} else {
		cq = p2.nicA.NewNotifyCQ("notify", h)
	}
	p2.k.Spawn("script", func(p *sim.Proc) {
		n := 0
		for b, burst := range notifyBursts {
			start := sim.Time(b+1) * 100 * sim.Microsecond
			p.Wait(start - p.Now())
			r.live = append(r.live, p2.k.Live())
			for _, off := range burst {
				p.Wait(start + off - p.Now())
				n++
				cq.deliver(Completion{Len: n})
			}
		}
	})
	r.base = p2.k.Live() - 1 // less the script
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	r.busy = node.CPU.BusyTime()
	p2.k.Shutdown()
	return r
}

// A notify queue's handler sees what a daemon looping on Wait sees: the
// same completions in the same order at the same instants, with one
// wakeup charged per burst.
func TestNotifyCQMatchesWaiter(t *testing.T) {
	wait, notify := runNotifyScript(t, true), runNotifyScript(t, false)
	if !slices.Equal(notify.at, wait.at) || !slices.Equal(notify.lens, wait.lens) {
		t.Fatalf("notify handler took %v at %v, waiter %v at %v", notify.lens, notify.at, wait.lens, wait.at)
	}
	if notify.busy != wait.busy {
		t.Fatalf("notify run charged %v of CPU, waiter %v", notify.busy, wait.busy)
	}
	wake := model.CLAN1998().WakeupLatency
	if want := 6*4*sim.Microsecond + 3*wake; notify.busy != want {
		t.Errorf("charged %v of CPU, want six handlers and three wakeups (%v)", notify.busy, want)
	}
	if want := 100*sim.Microsecond + wake; notify.at[0] != want {
		t.Errorf("first completion handled at %v, want the arrival plus the wakeup (%v)", notify.at[0], want)
	}
}

// Between bursts a notify queue holds no process: the drain proc ends
// when it finds the queue empty.
func TestNotifyCQParksNothingBetweenBursts(t *testing.T) {
	r := runNotifyScript(t, false)
	for b, live := range r.live {
		if live != r.base+1 {
			t.Errorf("burst %d: %d procs live before it, want the NIC engines and the script (%d)", b, live, r.base+1)
		}
	}
}

// A panic in a notify handler is the drain proc's, so Run reports it.
func TestNotifyCQHandlerPanicFailsRun(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	cq := p2.nicA.NewNotifyCQ("boom", func(p *sim.Proc, c Completion) { panic("handler failed") })
	p2.k.Spawn("script", func(p *sim.Proc) { cq.deliver(Completion{}) })
	err := p2.k.Run()
	if err == nil || !strings.Contains(err.Error(), "handler failed") {
		t.Fatalf("Run: %v, want the handler's panic", err)
	}
	p2.k.Shutdown()
}

// TestCQDepthGauge: with metrics on, a NIC's cq_depth gauge is the number
// of completions queued on its live CQs. It counts up on delivery and down
// on every take — Poll, Wait and a notify queue's drain — without a list
// of the CQs the NIC ever made.
func TestCQDepthGauge(t *testing.T) {
	prof := model.CLAN1998()
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	pr := NewProvider(fab)
	pr.Metrics = metrics.New(k)
	nicA, nicB := pr.NewNIC(fab.AddNode("a")), pr.NewNIC(fab.AddNode("b"))
	sendCQ, recvCQ := nicA.NewCQ("a.s"), nicB.NewCQ("b.r")
	handled := 0
	notify := nicA.NewNotifyCQ("a.n", func(p *sim.Proc, c Completion) { handled++ })
	viA, viB := nicA.NewVI(sendCQ, sendCQ), nicB.NewVI(recvCQ, recvCQ)
	Connect(viA, viB)
	viA2, viB2 := nicA.NewVI(notify, notify), nicB.NewVI(recvCQ, recvCQ)
	Connect(viA2, viB2)
	check := func(when string, n *NIC, want int, cqs ...*CQ) {
		t.Helper()
		sum := 0
		for _, cq := range cqs {
			sum += cq.ch.Len()
		}
		got := pr.Metrics.Value("via.nic." + n.Node.Name + ".cq_depth")
		if got != int64(sum) || sum != want {
			t.Errorf("%s: %s cq_depth %d, its CQs hold %d, want %d", when, n.Node.Name, got, sum, want)
		}
	}
	k.Spawn("app", func(p *sim.Proc) {
		ra, rb := nicA.Register(p, make([]byte, 64)), nicB.Register(p, make([]byte, 6*64))
		for i := range 6 {
			vi := viB
			if i >= 4 {
				vi = viB2
			}
			if err := vi.PostRecv(p, &Descriptor{Region: rb, Offset: i * 64, Len: 64}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := range 6 {
			vi := viA
			if i >= 4 {
				vi = viA2
			}
			if err := vi.PostSend(p, &Descriptor{Op: OpSend, Region: ra, Len: 64}); err != nil {
				t.Error(err)
				return
			}
		}
		p.Wait(sim.Millisecond)
		if handled != 2 {
			t.Errorf("notify queue handled %d completions, want 2", handled)
		}
		check("delivered", nicA, 4, sendCQ, notify)
		check("delivered", nicB, 6, recvCQ)
		sendCQ.Wait(p)
		recvCQ.Poll()
		check("one taken", nicA, 3, sendCQ, notify)
		check("one taken", nicB, 5, recvCQ)
		for range 3 {
			sendCQ.Wait(p)
		}
		for range 5 {
			recvCQ.Poll()
		}
		check("all taken", nicA, 0, sendCQ, notify)
		check("all taken", nicB, 0, recvCQ)
		// A blocked Wait takes its completion as it wakes.
		if err := viB.PostRecv(p, &Descriptor{Region: rb, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		if err := viA.PostSend(p, &Descriptor{Op: OpSend, Region: ra, Len: 64}); err != nil {
			t.Error(err)
			return
		}
		recvCQ.Wait(p)
		check("woken", nicB, 0, recvCQ)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
