package sim

import "testing"

// A self-rearming daemon event (the metrics-sampler shape) must not keep
// Run alive: once the workload drains, the pending tick is left queued and
// Run returns cleanly.
func TestDaemonEventDoesNotKeepRunAlive(t *testing.T) {
	k := NewKernel()
	var ticks int
	var ev *Event
	ev = k.NewDaemonEvent(func() {
		ticks++
		k.AfterEvent(ev, 10)
	})
	k.AfterEvent(ev, 10)
	k.Spawn("work", func(p *Proc) { p.Wait(35) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Ticks at 10, 20, 30 fire while the workload is live; the tick armed
	// for t=40 is left pending.
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if k.Now() != 35 {
		t.Fatalf("Now = %v, want 35 (time must not advance to the orphan tick)", k.Now())
	}
	if k.PendingEvents() != 1 {
		t.Fatalf("PendingEvents = %d, want the unexecuted daemon tick", k.PendingEvents())
	}
}

// Daemon events do not mask a real deadlock: a parked non-daemon proc with
// only daemon events pending is still reported.
func TestDaemonEventDoesNotMaskDeadlock(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	k.Spawn("stuck", func(p *Proc) { ch.Recv(p) })
	var ev *Event
	ev = k.NewDaemonEvent(func() { k.AfterEvent(ev, 5) })
	k.AfterEvent(ev, 5)
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

// Live and PendingEvents expose the sampler-facing kernel gauges.
func TestKernelGauges(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		if k.Live() != 1 {
			t.Errorf("Live = %d, want 1", k.Live())
		}
	})
	k.Spawn("p", func(p *Proc) { p.Wait(20) })
	if k.PendingEvents() == 0 {
		t.Fatal("PendingEvents = 0 before Run")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Live() != 0 || k.PendingEvents() != 0 {
		t.Fatalf("Live=%d PendingEvents=%d after drain", k.Live(), k.PendingEvents())
	}
}
