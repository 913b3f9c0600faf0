package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.0000s"},
		{0, "0ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if got := Seconds(1.5); got != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", got)
	}
	if got := Micros(2.5); got != 2500 {
		t.Fatalf("Micros(2.5) = %v", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 1000 bytes at 1000 bytes/sec = 1 second.
	if got := TransferTime(1000, 1000); got != Second {
		t.Fatalf("TransferTime = %v, want 1s", got)
	}
	if got := TransferTime(0, 1e9); got != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", got)
	}
	// Tiny transfers still cost at least one tick.
	if got := TransferTime(1, 1e18); got != 1 {
		t.Fatalf("TransferTime tiny = %v, want 1", got)
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		n1, n2 := int64(a), int64(a)+int64(b)
		return TransferTime(n1, 1e6) <= TransferTime(n2, 1e6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAdvancesTime(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Wait(5 * Microsecond)
		p.Wait(3 * Microsecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 8*Microsecond {
		t.Fatalf("woke at %v, want 8us", at)
	}
	if k.Now() != 8*Microsecond {
		t.Fatalf("kernel now %v, want 8us", k.Now())
	}
}

func TestEventOrderIsFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time42(), func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v, want ascending", order)
		}
	}
}

func time42() Time { return 42 }

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var hits []string
	k.Spawn("parent", func(p *Proc) {
		p.Wait(1)
		p.Spawn("child", func(c *Proc) {
			c.Wait(2)
			hits = append(hits, fmt.Sprintf("child@%v", c.Now()))
		})
		hits = append(hits, fmt.Sprintf("parent@%v", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"parent@1ns", "child@3ns"}
	if fmt.Sprint(hits) != fmt.Sprint(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.Wait(1)
		panic("kapow")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kapow") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic info", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	k.Spawn("stuck", func(p *Proc) {
		ch.Recv(p) // nobody will ever send
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				panic("want panic for past event")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanFIFOAndBlocking(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv(p)
			if !ok {
				t.Error("unexpected close")
				return
			}
			got = append(got, v)
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wait(10)
			ch.Send(p, i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestChanBoundedBlocksSender(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 2)
	var sendDone Time
	k.Spawn("send", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Send(p, 3) // blocks until receiver drains one
		sendDone = p.Now()
	})
	k.Spawn("recv", func(p *Proc) {
		p.Wait(100)
		if v, ok := ch.Recv(p); !ok || v != 1 {
			t.Errorf("recv = %d,%v", v, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 100 {
		t.Fatalf("third send completed at %v, want 100ns", sendDone)
	}
}

func TestChanCloseDrains(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string](k, 0)
	var got []string
	var okAfter bool
	k.Spawn("recv", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				okAfter = ok
				return
			}
			got = append(got, v)
		}
	})
	k.Spawn("send", func(p *Proc) {
		ch.Send(p, "a")
		ch.Send(p, "b")
		ch.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a b]" || okAfter {
		t.Fatalf("got=%v okAfter=%v", got, okAfter)
	}
}

func TestChanTryOps(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty succeeded")
	}
	if !ch.TrySend(7) {
		t.Fatal("TrySend failed on empty bounded chan")
	}
	if ch.TrySend(8) {
		t.Fatal("TrySend succeeded on full chan")
	}
	if v, ok := ch.TryRecv(); !ok || v != 7 {
		t.Fatalf("TryRecv = %d,%v", v, ok)
	}
}

func TestResourceFIFOAndUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	var order []string
	work := func(name string, start, dur Time) {
		k.Spawn(name, func(p *Proc) {
			p.Wait(start)
			r.Acquire(p, 1)
			order = append(order, name)
			p.Wait(dur)
			r.Release(1)
		})
	}
	work("a", 0, 100)
	work("b", 10, 100) // queued behind a
	work("c", 20, 100) // queued behind b
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("order %v", order)
	}
	if k.Now() != 300 {
		t.Fatalf("end time %v, want 300ns", k.Now())
	}
	if got := r.BusyTime(); got != 300 {
		t.Fatalf("busy %v, want 300ns", got)
	}
	if busy := r.BusyTime(); busy != k.Now() {
		t.Fatalf("busy %v over %v, want fully utilized", busy, k.Now())
	}
}

func TestResourceMultiUnit(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dma", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprint("w", i), func(p *Proc) {
			r.Use(p, 1, 100)
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run in parallel 0-100, two 100-200.
	if fmt.Sprint(done) != "[100ns 100ns 200ns 200ns]" {
		t.Fatalf("done %v", done)
	}
	// Busy integral: 2 units busy for 200ns / cap 2 = 200ns... actually
	// 2 busy 0-100 and 2 busy 100-200 -> integral 400, /2 = 200.
	if got := r.BusyTime(); got != 200 {
		t.Fatalf("busy %v", got)
	}
}

func TestResourceLargeRequestBlocksQueue(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 2)
	var order []string
	k.Spawn("hold1", func(p *Proc) {
		r.Acquire(p, 1)
		p.Wait(100)
		r.Release(1)
	})
	k.Spawn("big", func(p *Proc) {
		p.Wait(1)
		r.Acquire(p, 2) // needs both units; waits for hold1
		order = append(order, "big")
		r.Release(2)
	})
	k.Spawn("small", func(p *Proc) {
		p.Wait(2)
		r.Acquire(p, 1) // fits now, but FIFO queues it behind big
		order = append(order, "small")
		r.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[big small]" {
		t.Fatalf("order %v, want big before small (FIFO)", order)
	}
}

func TestFuture(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	var got int
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		got = f.Get(p)
		at = p.Now()
	})
	k.Spawn("setter", func(p *Proc) {
		p.Wait(50)
		f.Set(99)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 || at != 50 {
		t.Fatalf("got=%d at=%v", got, at)
	}
	if !f.Done() {
		t.Fatal("future not done")
	}
}

func TestFutureGetAfterSet(t *testing.T) {
	k := NewKernel()
	f := NewFuture[string](k)
	f.Set("x")
	var got string
	k.Spawn("w", func(p *Proc) { got = f.Get(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double set")
		}
	}()
	f.Set(2)
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k, 3)
	var doneAt Time
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i * 10)
		k.Spawn("worker", func(p *Proc) {
			p.Wait(d)
			wg.Done()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 30 {
		t.Fatalf("doneAt %v, want 30ns", doneAt)
	}
}

// TestDeterminism runs a busy mixed-primitive scenario twice and requires
// byte-identical traces — the core guarantee everything else relies on.
func TestDeterminism(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		k := NewKernel()
		ch := NewChan[int](k, 3)
		r := NewResource(k, "cpu", 2)
		wg := NewWaitGroup(k, 5)
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				p.Wait(Time(i % 3))
				r.Use(p, 1, Time(10+i))
				ch.Send(p, i)
				wg.Done()
			})
		}
		k.Spawn("drain", func(p *Proc) {
			for i := 0; i < 5; i++ {
				v, _ := ch.Recv(p)
				fmt.Fprintf(&sb, "%d@%v ", v, p.Now())
			}
			wg.Wait(p)
			fmt.Fprintf(&sb, "end@%v", p.Now())
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestWaitUntil(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Wait(100 - p.Now())
		if p.Now() != 100 {
			t.Errorf("now %v", p.Now())
		}
		p.Wait(50 - p.Now()) // in the past: no time passes
		if p.Now() != 100 {
			t.Errorf("now %v after waiting until a past instant", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
