package sim

import (
	"strings"
	"testing"
)

func TestReentrantRunPanics(t *testing.T) {
	k := NewKernel()
	k.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		k.Run()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonsExcludedFromDeadlock(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	k.SpawnDaemon("server", func(p *Proc) {
		for {
			if _, ok := ch.Recv(p); !ok {
				return
			}
		}
	})
	k.Spawn("client", func(p *Proc) {
		p.Wait(10)
		ch.Send(p, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestSendOnClosedChanPanics(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	ch.Close()
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send on closed chan did not panic")
			}
			// Re-panic so the kernel records the proc failure cleanly.
		}()
		ch.Send(p, 1)
	})
	_ = k.Run()
}

func TestCloseWakesBlockedSender(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	k.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		defer func() {
			if recover() == nil {
				t.Error("blocked sender not failed by close")
			}
		}()
		ch.Send(p, 2) // blocks (full), then the channel closes
	})
	k.Spawn("closer", func(p *Proc) {
		p.Wait(5)
		ch.Close()
	})
	err := k.Run()
	if err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestResourcePanicsOnBadCounts(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 2)
	var c Credits
	c.Init(k, 2)
	for _, fn := range []func(){
		func() { r.Release(1) },              // release without acquire
		func() { NewResource(k, 0) },         // zero capacity
		func() { r.Use(&Proc{k: k}, 3, 0) },  // over capacity
		func() { r.Use(&Proc{k: k}, 0, 0) },  // zero count
		func() { c.Release(1) },              // credits: release without acquire
		func() { new(Credits).Init(k, 0) },   // credits: zero capacity
		func() { c.Acquire(&Proc{k: k}, 3) }, // credits: over capacity
		func() { c.Acquire(&Proc{k: k}, 0) }, // credits: zero count
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative waitgroup did not panic")
		}
	}()
	wg.Done()
}

func TestChanLenAndClosed(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	if ch.Len() != 0 {
		t.Fatal("fresh channel state wrong")
	}
	if !ch.TrySend(1) || !ch.TrySend(2) {
		t.Fatal("open channel refused a send")
	}
	if ch.Len() != 2 {
		t.Fatalf("len %d", ch.Len())
	}
	ch.Close()
	ch.Close() // idempotent
	if ch.TrySend(3) {
		t.Fatal("not closed: TrySend succeeded")
	}
	// Drain after close.
	if v, ok := ch.TryRecv(); !ok || v != 1 {
		t.Fatalf("drain %d %v", v, ok)
	}
}

func TestNegativeWaitIsZero(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Wait(-100)
		if p.Now() != 0 {
			t.Errorf("negative wait advanced time to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTimePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on non-positive rate")
		}
	}()
	TransferTime(100, 0)
}

// Shutdown unwinds parked procs one at a time: their deferred calls run,
// and two that touch the same state must not race (go test -race), nor
// may Shutdown return before every one has run.
func TestShutdownUnwindsOneAtATime(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	unwound := make(map[int]bool)
	for i := 0; i < 8; i++ {
		k.SpawnDaemon("parked", func(p *Proc) {
			defer func() { unwound[i] = true }()
			ch.Recv(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(unwound) != 8 {
		t.Fatalf("%d of 8 parked procs unwound by the time Shutdown returned", len(unwound))
	}
}
