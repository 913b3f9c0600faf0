package sim

import (
	"fmt"
	"sort"
)

// Kernel owns virtual time and the event queue. The zero value is not
// usable; create kernels with NewKernel.
//
// The event queue is a hierarchical timer wheel (see event.go) ordered by
// (Time, seq), and dispatch is allocation-free on the hot paths: proc
// wakeups ride each Proc's intrusive step event, At callbacks recycle
// kernel-pooled events, and callers with a steady-state timer can hold a
// reusable event from NewEvent and schedule it with AtEvent/AfterEvent.
//
// Control flows by direct handoff ("baton passing"): exactly one goroutine
// — the kernel's Run caller or one proc — is ever runnable, and whoever
// holds the baton pops events itself (see dispatch). Callback events run
// inline on the holder's stack; a proc-step event hands the baton straight
// to the target proc. A proc event therefore costs one goroutine transfer,
// not a round trip through a central scheduler goroutine, and an engine's
// step event (SpawnEngine) costs none: it runs inline like a callback.
type Kernel struct {
	now Time
	seq uint64
	q   eventQueue

	gate chan struct{} // where the baton comes home when dispatch stops

	live        []*Proc   // spawned, not finished; index mirrored in Proc.liveIdx
	freeProcs   []*Proc   // finished Proc records awaiting reuse by Spawn
	freeWorkers []*worker // parked worker goroutines awaiting a proc to run
	freeEvents  *Event    // recycled At/After callback events
	workers     int       // worker goroutines started and not yet reclaimed

	daemonEv int // queued daemon events; they alone never keep Run alive

	failure  error // first panic raised inside a process
	cbPanic  bool  // a callback panicked; Run re-panics with cbPanicV
	cbPanicV any
	running  bool
	closed   bool

	dispatched uint64 // events executed since creation
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{gate: make(chan struct{})} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events the kernel has dispatched since
// creation — the primary throughput unit reported by cmd/simbench.
func (k *Kernel) Events() uint64 { return k.dispatched }

// Live returns the number of live procs: spawned and not yet finished,
// whether running, runnable, or parked.
func (k *Kernel) Live() int { return len(k.live) }

// Goroutines returns the number of worker goroutines this kernel holds,
// bound to a proc or pooled. Engines hold none. Shutdown reclaims them all.
func (k *Kernel) Goroutines() int { return k.workers }

// PendingEvents returns the number of events currently queued — the
// occupancy of the timer wheel (plus its overflow heap).
func (k *Kernel) PendingEvents() int { return k.q.n }

// schedule assigns the next sequence number and enqueues e at t. All
// scheduling funnels through here, so dispatch order is exactly the old
// heap's (Time, seq) order. Scheduling in the past panics: the simulation
// is strictly causal.
func (k *Kernel) schedule(e *Event, t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if e.queued {
		panic("sim: event already scheduled")
	}
	k.seq++
	e.at = t
	e.seq = k.seq
	e.queued = true
	if e.daemon {
		k.daemonEv++
	}
	k.q.push(e)
}

// At schedules fn to run in kernel context at virtual time t. The event
// carrying fn comes from the kernel's free list; only the closure itself
// may allocate. Callers with a long-lived timer should prefer NewEvent +
// AtEvent, which allocates once for the event and its action together.
func (k *Kernel) At(t Time, fn func()) {
	e := k.freeEvents
	if e != nil {
		k.freeEvents = e.next
		e.next = nil
	} else {
		e = &Event{pooled: true}
	}
	e.fn = fn
	k.schedule(e, t)
}

// Reserve pre-sizes the kernel's internal callback-event pool with n
// events allocated as one contiguous slab. Models with a large standing
// population of At/After timers (per-call deadlines across thousands of
// clients) can reserve their peak up front for one allocation instead of
// one per event as the pool grows.
func (k *Kernel) Reserve(n int) {
	slab := make([]Event, n)
	for i := range slab {
		e := &slab[i]
		e.pooled = true
		e.next = k.freeEvents
		k.freeEvents = e
	}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// NewEvent returns a reusable event that runs fn when dispatched. The
// caller owns it: schedule with AtEvent/AfterEvent, reuse freely after it
// fires. This is the allocation-free alternative to At for components
// that schedule the same action repeatedly (wire delivery, call
// deadlines, proc wakeups).
func (k *Kernel) NewEvent(fn func()) *Event {
	if fn == nil {
		panic("sim: NewEvent with nil action")
	}
	return &Event{fn: fn}
}

// NewDaemonEvent returns a reusable event, like NewEvent, except that its
// pending presence does not keep the simulation alive: Run stops when
// only daemon events remain queued, leaving them unexecuted.
// This is the background-activity analogue of SpawnDaemon — a periodic
// self-rescheduling action (a metrics sampler tick, a scrubber) can arm
// its next firing unconditionally without live-locking the kernel once
// the real workload drains.
func (k *Kernel) NewDaemonEvent(fn func()) *Event {
	e := k.NewEvent(fn)
	e.daemon = true
	return e
}

// AtEvent schedules a reusable event at virtual time t. It panics if the
// event is already scheduled (reuse requires the previous firing to have
// dispatched) or if t is in the past.
func (k *Kernel) AtEvent(e *Event, t Time) {
	if e.fn == nil && e.proc == nil {
		panic("sim: AtEvent on an event without an action")
	}
	if e.pooled {
		panic("sim: AtEvent on a kernel-pooled event")
	}
	k.schedule(e, t)
}

// AfterEvent schedules a reusable event d from now.
func (k *Kernel) AfterEvent(e *Event, d Time) { k.AtEvent(e, k.now+d) }

// DeadlockError reports that the event queue drained while simulated
// processes were still parked on channels, resources, or futures.
type DeadlockError struct {
	Time   Time
	Parked []string // names of parked processes
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) parked: %v", e.Time, len(e.Parked), e.Parked)
}

// Run processes events until no non-daemon event is queued. It returns a
// non-nil error if a process panicked or if processes remain parked with no
// pending events (deadlock).
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	if k.closed {
		panic("sim: Run after Shutdown")
	}
	k.running = true
	defer func() { k.running = false }()
	if p := k.dispatch(); p != nil {
		// Hand the baton to the first proc; it comes home on k.gate when
		// dispatch stops (no non-daemon event left, or failure).
		p.w.gate <- struct{}{}
		<-k.gate
	}
	if k.cbPanic {
		v := k.cbPanicV
		k.cbPanic, k.cbPanicV = false, nil
		panic(v) // propagate a callback panic out of Run, as ever
	}
	if k.failure != nil {
		return k.failure
	}
	var names []string
	for _, p := range k.live {
		if !p.daemon {
			names = append(names, p.Name)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		return &DeadlockError{Time: k.now, Parked: names}
	}
	return nil
}

// dispatch runs the event loop on the calling goroutine — the current baton
// holder — executing callback events and engine steps inline until it
// hits a proc-step event, which it returns for the caller to hand the
// baton to. It returns nil when the loop must stop: no non-daemon event
// queued, a recorded failure, or a callback panic. A nil return obliges a
// proc caller to send the baton home on k.gate.
func (k *Kernel) dispatch() *Proc {
	// The loop stops when only daemon events remain: they are left queued
	// and unexecuted, exactly as parked daemon procs are left parked.
	for k.failure == nil && !k.cbPanic && k.q.n > k.daemonEv {
		ev := k.q.pop()
		k.now = ev.at
		k.dispatched++
		if ev.daemon {
			k.daemonEv--
		}
		if p := ev.proc; p != nil {
			if p.step != nil {
				k.stepEngine(p)
				continue
			}
			if p.w == nil {
				k.bind(p) // first step: attach a pooled worker goroutine
			}
			return p
		}
		fn := ev.fn
		if ev.pooled {
			// Recycle before running so fn may immediately schedule
			// another At without growing the pool.
			ev.fn = nil
			ev.next = k.freeEvents
			k.freeEvents = ev
		}
		k.runCallback(fn)
	}
	return nil
}

// runCallback executes a callback event, trapping a panic so it does not
// unwind the (arbitrary) proc goroutine that happens to hold the baton;
// Run re-raises it on the Run caller's stack.
func (k *Kernel) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			k.cbPanic, k.cbPanicV = true, r
		}
	}()
	fn()
}

// Shutdown reclaims the kernel's pooled worker goroutines: idle workers
// exit, and parked procs (daemons included) unwind without running further
// simulation code; engines have no goroutine and are skipped. Goroutines
// go one at a time, each gone before the next is released: an unwinding
// proc runs its deferred calls, and those of two procs may touch the same
// state. It must not be called while Run is executing; after Shutdown the
// kernel is dead — Run and Spawn panic.
// Kernels used in loops (benchmark harnesses, repeated experiments) should
// Shutdown when done so worker goroutines and their stacks are reclaimed;
// short-lived kernels may skip it, leaking only what the old
// one-goroutine-per-proc design leaked for parked daemons.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("sim: Shutdown during Run")
	}
	if k.closed {
		return
	}
	k.closed = true
	for _, w := range k.freeWorkers {
		close(w.gate)
		<-k.gate
	}
	for _, p := range k.live {
		if p.w != nil {
			close(p.w.gate)
			<-k.gate
		}
		// Never-started procs have no goroutine to reclaim.
	}
	k.freeProcs, k.freeWorkers, k.live = nil, nil, nil
	k.workers = 0
}

// removeLive swap-removes a finished proc from the live set.
func (k *Kernel) removeLive(p *Proc) {
	i := p.liveIdx
	last := len(k.live) - 1
	k.live[i] = k.live[last]
	k.live[i].liveIdx = i
	k.live[last] = nil
	k.live = k.live[:last]
	p.liveIdx = -1
}
