package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time by the kernel. A Proc must only call simulation
// primitives (Wait, channel operations, resource acquires...) from its own
// goroutine; the kernel enforces single-threaded execution, so no locking is
// needed anywhere in the simulation.
//
// An engine (SpawnEngine) is a Proc with no goroutine at all: its step
// function runs inline on the baton holder's stack each time its step
// event fires, and arranges the next firing with the non-blocking forms
// Sleep, Chan.Poll, Chan.Offer and Resource.Claim instead of parking.
//
// Procs are pooled, and so are the goroutines that run them — separately.
// A Proc is the simulation-visible identity (name, wait state, its step
// event in the queue); a worker is a parked goroutine with a rendezvous
// gate. Spawn only creates the Proc and queues its first step; a worker is
// bound at first dispatch, and returns to the worker pool when the proc
// finishes. Goroutine count therefore tracks peak *running* concurrency,
// not peak *spawned* concurrency: a server fanning out a large backlog of
// handler procs queues them as cheap Proc records, and a handful of pooled
// workers drain them.
type Proc struct {
	Name string

	k       *Kernel
	w       *worker       // bound at first dispatch; nil before start and after finish
	fn      func(p *Proc) // current assignment
	step    func(p *Proc) // engines only: runs once per step event, never parks
	done    bool
	daemon  bool
	armed   bool // a step event or a wake is arranged (engines end when not)
	liveIdx int  // index in k.live; -1 when finished

	// stepEv is the proc's intrusive kernel event: Spawn, Wait, and every
	// wake schedule it, so stepping a proc never allocates. The park/wake
	// discipline guarantees at most one pending wake per proc, which is
	// exactly the one-outstanding-schedule rule events require.
	stepEv Event

	// Intrusive wait-list link and per-wait state, used by Chan, Resource,
	// Future, and WaitGroup. A parked proc sits on at most one wait list
	// at a time, so one set of fields suffices.
	wnext    *Proc
	wn       int
	wgranted bool

	// traceCtx is an opaque correlation id carried by the process for
	// observability layers (see internal/trace). The kernel never reads
	// it; it exists so a layer can parent the operations a lower layer
	// performs on its behalf without the sim package depending on the
	// tracer.
	traceCtx uint64
}

// TraceCtx returns the process's current trace correlation id (0 = none).
func (p *Proc) TraceCtx() uint64 { return p.traceCtx }

// SetTraceCtx installs a trace correlation id and returns the previous one,
// so callers can restore it when their operation completes.
func (p *Proc) SetTraceCtx(id uint64) (old uint64) {
	old = p.traceCtx
	p.traceCtx = id
	return old
}

// procPanic carries a panic out of a process into the kernel's error return.
type procPanic struct {
	proc   string
	engine bool
	value  any
	stack  []byte
}

// Error implements error.
func (e *procPanic) Error() string {
	kind := "process"
	if e.engine {
		kind = "engine"
	}
	return fmt.Sprintf("sim: %s %q panicked: %v\n%s", kind, e.proc, e.value, e.stack)
}

// errEngineBlocked is the panic an engine's step raises by calling a
// blocking primitive: it has no goroutine to park.
const errEngineBlocked = "sim: engine step blocked (an engine arranges its next step with Sleep, Poll, Offer or Claim)"

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. It may be called from kernel context (before Run)
// or from another process. The Proc record is recycled from the kernel's
// pool when one is available; no goroutine is involved until the proc's
// first step dispatches (see Kernel.bind).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, nil)
}

// spawn queues the first step of a goroutine proc (fn) or an engine (step).
func (k *Kernel) spawn(name string, fn, step func(p *Proc)) *Proc {
	if k.closed {
		panic("sim: Spawn after Shutdown")
	}
	var p *Proc
	if n := len(k.freeProcs); n > 0 {
		p = k.freeProcs[n-1]
		k.freeProcs[n-1] = nil
		k.freeProcs = k.freeProcs[:n-1]
		p.done = false
		p.daemon = false
		p.traceCtx = 0
	} else {
		p = &Proc{k: k}
		p.stepEv.proc = p
	}
	p.Name = name
	p.fn = fn
	p.step = step
	p.liveIdx = len(k.live)
	k.live = append(k.live, p)
	k.schedule(&p.stepEv, k.now)
	return p
}

// worker is a pooled goroutine that executes procs. It rendezvouses on its
// gate: whoever holds the kernel baton sends to hand it over, and Shutdown
// closes it to reclaim the goroutine.
type worker struct {
	gate chan struct{}
	p    *Proc // currently bound proc, nil while in the free pool
}

// bind attaches a worker to a proc whose first step is dispatching,
// preferring a pooled worker (LIFO, so the worker that just finished a
// proc — whose stack is hottest — picks up the next one).
func (k *Kernel) bind(p *Proc) {
	var w *worker
	if n := len(k.freeWorkers); n > 0 {
		w = k.freeWorkers[n-1]
		k.freeWorkers[n-1] = nil
		k.freeWorkers = k.freeWorkers[:n-1]
	} else {
		w = &worker{gate: make(chan struct{})}
		k.workers++
		go w.loop(k)
	}
	w.p = p
	p.w = w
}

// SpawnDaemon starts a process that is expected to park forever (a server
// loop). Daemons are excluded from deadlock detection: a run in which only
// daemons remain parked terminates normally.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.Spawn(name, fn)
	p.daemon = true
	return p
}

// SpawnEngine starts an engine: a daemon with no goroutine of its own.
// Each time its step event fires, step runs inline on the stack of
// whoever holds the baton, and before it returns it arranges its next
// step: Sleep for a timer, Chan.Poll or Chan.Offer to wait on a channel,
// Resource.Claim to queue for units (the grant steps it, holding them).
// A step that arranges nothing ends the engine. A step must not block: one
// that calls Wait, Recv, Send, Acquire or any other parking primitive, or
// that panics, ends Run with an error naming the engine.
//
// An engine that makes the same primitive calls in the same order as a
// blocking proc's body leaves every event at the same (Time, seq): the
// blocking forms are park loops over the same non-blocking ones.
func (k *Kernel) SpawnEngine(name string, step func(p *Proc)) *Proc {
	p := k.spawn(name, nil, step)
	p.daemon = true
	return p
}

// stepEngine runs one step of an engine on the caller's stack, turning a
// panic into the kernel's failure and retiring an engine that arranged no
// next step.
func (k *Kernel) stepEngine(p *Proc) {
	p.armed = false
	defer func() {
		if r := recover(); r != nil {
			if k.failure == nil {
				k.failure = &procPanic{proc: p.Name, engine: true, value: r, stack: debug.Stack()}
			}
			return
		}
		if !p.armed {
			p.done = true
			p.step = nil
			k.removeLive(p)
			k.freeProcs = append(k.freeProcs, p)
		}
	}()
	p.step(p)
}

// loop is the worker goroutine: wait for a proc assignment, run it, return
// proc and worker to their pools, continue dispatching (the finishing
// worker holds the baton), repeat. It exits when Shutdown closes the gate,
// and tells Shutdown on the kernel's gate once it is gone.
func (w *worker) loop(k *Kernel) {
	defer func() { k.gate <- struct{}{} }()
	assigned := false // baton already ours: run the new assignment directly
	for {
		if !assigned {
			if _, ok := <-w.gate; !ok {
				return // Shutdown reclaimed an idle worker
			}
		}
		w.exec(k)
		if k.closed {
			return
		}
		// Rejoin the pools first: only this goroutine is runnable, so the
		// appends are ordered, and the dispatch below may immediately bind
		// this worker to the next proc — in which case it hands it right
		// back (the q.w == w fast path: no goroutine switch at all).
		p := w.p
		w.p = nil
		p.w = nil
		k.freeProcs = append(k.freeProcs, p)
		k.freeWorkers = append(k.freeWorkers, w)
		q := k.dispatch()
		if q != nil && q.w == w {
			assigned = true
			continue
		}
		assigned = false
		if q != nil {
			q.w.gate <- struct{}{}
		} else {
			k.gate <- struct{}{}
		}
	}
}

// exec runs one assignment to completion, converting a panic into the
// kernel's failure and retiring the proc from the live set.
func (w *worker) exec(k *Kernel) {
	p := w.p
	defer func() {
		r := recover()
		if k.closed {
			return // Shutdown unwound us mid-park; kernel state is dead
		}
		if r != nil && k.failure == nil {
			k.failure = &procPanic{proc: p.Name, value: r, stack: debug.Stack()}
		}
		p.done = true
		p.fn = nil
		k.removeLive(p)
	}()
	p.fn(p)
}

// park blocks the process until another component wakes it via k.wake. The
// caller must have enlisted the process on a wait list (pushWaiter), so the
// wake takes another proc's action; the lint's may-park set is anchored
// here. A timer wait suspends without parking: it wakes by itself.
func (p *Proc) park() { p.suspend() }

// suspend gives up the baton until p's step event fires. The suspending
// proc holds the baton, so it keeps dispatching: if its own step is the
// very next event it simply continues; otherwise it hands the baton to the
// next proc (or home to the kernel) and sleeps on its gate.
func (p *Proc) suspend() {
	if p.step != nil {
		panic(errEngineBlocked)
	}
	k := p.k
	q := k.dispatch()
	if q == p {
		return // our own wake was next: no handoff needed
	}
	if q != nil {
		q.w.gate <- struct{}{}
	} else {
		k.gate <- struct{}{}
	}
	if _, ok := <-p.w.gate; !ok || k.closed {
		// Shutdown: unwind the proc without running more simulation code.
		// exec's deferred cleanup sees k.closed and leaves kernel state
		// alone; the worker goroutine exits.
		runtime.Goexit()
	}
}

// wake schedules p to continue at the current virtual time. It must be
// called for a process that is parked (or about to park), or for an
// engine enlisted on a wait list; the FIFO event queue makes the wake
// order deterministic.
func (k *Kernel) wake(p *Proc) {
	k.schedule(&p.stepEv, k.now)
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Wait suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, giving same-instant events a
// chance to run first).
func (p *Proc) Wait(d Time) {
	p.Sleep(d)
	p.suspend()
}

// Sleep is Wait without the suspension: it arranges p's next step d from
// now (negative d counts as zero) and returns at once. It is how an
// engine waits out a service time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.schedule(&p.stepEv, k.now+d)
	p.armed = true
}

// Spawn starts a child process from within this process.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.k.Spawn(name, fn)
}

// Wait lists: procs are linked through their intrusive wnext field. A
// proc is on at most one list at a time (it is parked on whatever it
// waits for), so the synchronization primitives enqueue waiters without
// allocating.

// pushWaiter appends p to the FIFO list (head, tail); the wake that pops
// it arranges p's next step.
func pushWaiter(head, tail **Proc, p *Proc) {
	p.armed = true
	p.wnext = nil
	if *tail == nil {
		*head, *tail = p, p
		return
	}
	(*tail).wnext = p
	*tail = p
}

// popWaiter removes and returns the FIFO head, or nil.
func popWaiter(head, tail **Proc) *Proc {
	p := *head
	if p == nil {
		return nil
	}
	*head = p.wnext
	if *head == nil {
		*tail = nil
	}
	p.wnext = nil
	return p
}
