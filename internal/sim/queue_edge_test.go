package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSameInstantOrderAcrossLevels schedules events for one instant from
// different cursor positions, so they enter the wheel at different levels
// — the earliest from far below the target (a high level), later ones from
// within the final level-1 slot and at the instant itself (level 0). After
// cascading they share a level-0 slot and must dispatch in scheduling
// (seq) order, which is the kernel's total order for ties.
func TestSameInstantOrderAcrossLevels(t *testing.T) {
	k := NewKernel()
	const target = Time(4100) // past 64^2: level 2 when seen from t=0
	var got []int
	mark := func(n int) func() { return func() { got = append(got, n) } }
	k.At(target, mark(0)) // scheduled at cur=0
	k.At(10, func() {
		k.At(target, mark(1)) // still beyond the level-1 horizon
	})
	k.At(4090, func() {
		k.At(target, mark(2)) // same level-1 slot: level 0 placement
	})
	k.At(target, func() {
		// Scheduled while dispatching the instant itself: must still run
		// within this instant, after everything scheduled earlier.
		k.At(target, mark(3))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("same-instant dispatch order = %v, want %v", got, want)
	}
	if k.Now() != target {
		t.Fatalf("final time %v, want %v", k.Now(), target)
	}
}

// TestRunUntilSlotBoundary stops a run exactly on the last instant of a
// level-1 slot. The kernel has no bounded run any more: Run stops there by
// draining, with the cursor left at now rather than cascaded into the next
// slot. Events then scheduled at that same instant and across the edge
// must dispatch in (Time, seq) order, and a push behind the cursor is a
// kernel bug and must panic.
func TestRunUntilSlotBoundary(t *testing.T) {
	k := NewKernel()
	var got []Time
	mark := func(at, id Time) { k.At(at, func() { got = append(got, id) }) }
	mark(62, 62)
	mark(63, 63)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{62, 63}; k.Now() != 63 || !reflect.DeepEqual(got, want) {
		t.Fatalf("first run: now %v, dispatched %v, want 63 and %v", k.Now(), got, want)
	}
	mark(65, 65)
	mark(63, 630)
	mark(66, 66)
	mark(64, 64)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{62, 63, 630, 64, 65, 66}; !reflect.DeepEqual(got, want) {
		t.Fatalf("full dispatch order: %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push behind the wheel cursor did not panic")
		}
	}()
	k.q.push(&Event{at: k.Now() - 1, seq: k.seq + 1})
}

// TestRunUntilBoundaryRepeated walks runs forward one level-1 slot at a
// time. Each round starts from a run drained on the last instant of a
// slot, schedules at that instant and across the next edge, and runs
// again. Dispatch must stay in (Time, seq) order every round.
func TestRunUntilBoundaryRepeated(t *testing.T) {
	k := NewKernel()
	var got []Time
	mark := func(at, id Time) { k.At(at, func() { got = append(got, id) }) }
	mark(63, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for edge := Time(64); edge <= 512; edge += 64 {
		now := k.Now()
		got = nil
		// Scrambled times; ids record (time, seq): the second id at edge
		// is scheduled later and must run later.
		mark(edge+2, 4)
		mark(edge, 1)
		mark(now, 0)
		mark(edge+1, 3)
		mark(edge, 2)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []Time{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("edge %v: dispatch order %v, want %v", edge, got, want)
		}
		if k.Now() != edge+2 {
			t.Fatalf("edge %v: drained at %v", edge, k.Now())
		}
		// The next round starts on the last instant of this slot.
		mark(edge+63, 0)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFarFutureOverflow schedules events beyond the wheel horizon (64^5 ns
// past the cursor) in descending time order, so every one lands in the
// overflow heap in its worst insertion position, plus near-term traffic.
// Dispatch must be globally time-ordered, and a far-future callback that
// schedules yet further events (after the cursor's long jump) must stay
// ordered too.
func TestFarFutureOverflow(t *testing.T) {
	k := NewKernel()
	horizon := Time(1) << (wheelBits * wheelLevels)
	var got []Time
	mark := func(at Time) { k.At(at, func() { got = append(got, at) }) }
	var want []Time
	for i := 9; i >= 0; i-- {
		at := 3*horizon + Time(i)*horizon/2
		mark(at)
		want = append(want, at)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	mark(5)
	mark(horizon - 1)
	want = append([]Time{5, horizon - 1}, want...)
	// From beyond the original horizon, extend further still.
	last := want[len(want)-1] + horizon + 17
	k.At(want[0+2], func() { mark(last) })
	want = append(want, last)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overflow dispatch order:\n got %v\nwant %v", got, want)
	}
}

// TestDeadlockErrorPooledProcs deadlocks a kernel whose Proc records have
// been through the pool: the error must name the procs' current
// assignments, not the finished ones the records previously ran.
func TestDeadlockErrorPooledProcs(t *testing.T) {
	k := NewKernel()
	// Phase 1: procs that finish and return their records to the pool.
	for _, name := range []string{"old1", "old2", "old3"} {
		k.Spawn(name, func(p *Proc) { p.Wait(1) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: recycled records park forever; a daemon parks legitimately.
	ch := NewChan[int](k, 0)
	k.SpawnDaemon("server", func(p *Proc) {
		for {
			if _, ok := ch.Recv(p); !ok {
				return
			}
		}
	})
	k.Spawn("stuckB", func(p *Proc) { NewChan[int](k, 0).Recv(p) })
	k.Spawn("stuckA", func(p *Proc) { NewFuture[int](k).Get(p) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if want := []string{"stuckA", "stuckB"}; !reflect.DeepEqual(dl.Parked, want) {
		t.Fatalf("Parked = %v, want %v (sorted, daemons excluded, pooled names current)", dl.Parked, want)
	}
}

// refQueue is the oracle for the equivalence test: the straightforward
// (at, seq)-sorted slice the timer wheel must be indistinguishable from.
type refQueue []*Event

func (r *refQueue) push(e *Event) {
	i := sort.Search(len(*r), func(i int) bool { return evBefore(e, (*r)[i]) })
	*r = append(*r, nil)
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = e
}

func (r *refQueue) pop() *Event {
	if len(*r) == 0 {
		return nil
	}
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// TestWheelMatchesHeapReference drives the timer wheel and a sorted-slice
// reference with an identical randomized schedule — bursts of pushes at
// time offsets spanning every wheel level and the overflow horizon,
// interleaved with pops — and requires identical event
// identity at every step. The seed is fixed: failures reproduce.
func TestWheelMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	horizon := int64(1) << (wheelBits * wheelLevels)
	var q eventQueue
	var ref refQueue
	var seq uint64
	now := Time(0) // lower bound for new events, as the kernel maintains
	push := func() {
		var d int64
		switch rng.Intn(5) {
		case 0:
			d = rng.Int63n(4) // same instant / level 0
		case 1:
			d = rng.Int63n(1 << wheelBits)
		case 2:
			d = rng.Int63n(1 << (3 * wheelBits))
		case 3:
			d = rng.Int63n(horizon)
		case 4:
			d = horizon + rng.Int63n(3*horizon) // overflow
		}
		seq++
		e := &Event{at: now + Time(d), seq: seq}
		q.push(e)
		ref.push(e)
	}
	for step := 0; step < 5000; step++ {
		for i := rng.Intn(4); i > 0; i-- {
			push()
		}
		for i := rng.Intn(5); i > 0; i-- {
			want := ref.pop()
			got := q.pop()
			if got != want {
				t.Fatalf("step %d: wheel popped %+v, reference %+v", step, got, want)
			}
			if got == nil {
				break
			}
			if got.at < now {
				t.Fatalf("step %d: time went backwards: %v after %v", step, got.at, now)
			}
			now = got.at
		}
		if q.n != len(ref) {
			t.Fatalf("step %d: wheel count %d, reference %d", step, q.n, len(ref))
		}
	}
	// Drain and compare the tails.
	for {
		want := ref.pop()
		got := q.pop()
		if got != want {
			t.Fatalf("drain: wheel popped %+v, reference %+v", got, want)
		}
		if got == nil {
			break
		}
	}
}
