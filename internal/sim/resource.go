package sim

// Resource is a counted resource with strict FIFO admission, used to model
// CPUs, DMA engines, disk arms, and link arbitration. It also integrates
// occupancy and queue depth over time so experiments can report utilization
// (e.g. client CPU busy fraction, the paper's key DAFS-vs-NFS metric) and
// queueing delay.
//
// Waiters queue on the intrusive list through each Proc's wnext link; the
// requested unit count, enqueue time, and grant flag live in the Proc's
// reusable wait fields, so a contended Acquire does not allocate.
type Resource struct {
	Name string

	k     *Kernel
	cap   int
	inUse int
	waitH *Proc // FIFO admission queue
	waitT *Proc
	nwait int

	busyInt    float64 // integral of inUse over time, unit-ns
	qInt       float64 // integral of queue depth over time, waiter-ns
	lastChange Time
	createdAt  Time

	acquires int64 // Acquire calls
	waits    int64 // acquisitions that had to queue
	waited   Time  // cumulative queue time of granted acquisitions
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	r := new(Resource)
	r.Init(k, name, capacity)
	return r
}

// Init sets up a resource in place, for a resource embedded in its owner's
// record.
func (r *Resource) Init(k *Kernel, name string, capacity int) {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	*r = Resource{Name: name, k: k, cap: capacity, lastChange: k.now, createdAt: k.now}
}

// Cap returns the resource capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	now := r.k.now
	dt := float64(now - r.lastChange)
	r.busyInt += float64(r.inUse) * dt
	r.qInt += float64(r.nwait) * dt
	r.lastChange = now
}

// Acquire blocks p until n units are available. Admission is strictly FIFO:
// a large request at the head of the queue blocks smaller requests behind
// it, which keeps service order deterministic and fair.
func (r *Resource) Acquire(p *Proc, n int) {
	if r.Claim(p, n) {
		return
	}
	for !p.wgranted {
		p.park()
	}
}

// Claim is Acquire's non-blocking step: it takes n units and reports true
// when they are free and nobody is queued, or queues p FIFO and reports
// false. The grant hands p the units and wakes it.
func (r *Resource) Claim(p *Proc, n int) bool {
	if n < 1 || n > r.cap {
		panic("sim: bad acquire count")
	}
	r.acquires++
	r.account()
	if r.waitH == nil && r.inUse+n <= r.cap {
		r.inUse += n
		return true
	}
	p.wn = n
	p.wsince = r.k.now
	p.wgranted = false
	pushWaiter(&r.waitH, &r.waitT, p)
	r.nwait++
	return false
}

// Release returns n units and grants as many FIFO waiters as now fit.
func (r *Resource) Release(n int) {
	if n < 1 || n > r.inUse {
		panic("sim: bad release count")
	}
	r.account()
	r.inUse -= n
	for r.waitH != nil && r.inUse+r.waitH.wn <= r.cap {
		w := popWaiter(&r.waitH, &r.waitT)
		r.nwait--
		w.wgranted = true
		r.inUse += w.wn
		r.waits++
		// Clamp to createdAt so a ResetStats issued while processes were
		// queued charges only the post-reset share of their wait.
		since := max(w.wsince, r.createdAt)
		r.waited += r.k.now - since
		r.k.wake(w)
	}
}

// Use acquires n units, holds them for d of virtual time, and releases them.
// It is the standard way to charge work to a CPU or engine.
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Wait(d)
	r.Release(n)
}

// BusyTime returns the cumulative busy time normalized by capacity: a
// single-unit resource held for 5ms reports 5ms; a 2-unit resource with one
// unit held for 5ms reports 2.5ms.
func (r *Resource) BusyTime() Time {
	integral := r.busyInt + float64(r.inUse)*float64(r.k.now-r.lastChange)
	return Time(integral / float64(r.cap))
}

// Utilization returns the busy fraction since creation (0..1). It returns 0
// before any virtual time has elapsed.
func (r *Resource) Utilization() float64 {
	elapsed := r.k.now - r.createdAt
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(elapsed)
}

// Acquires returns the number of Acquire and Claim calls since creation or
// the last ResetStats.
func (r *Resource) Acquires() int64 { return r.acquires }

// Waits returns how many acquisitions had to queue before being granted.
func (r *Resource) Waits() int64 { return r.waits }

// QueueWait returns the cumulative virtual time acquirers have spent queued,
// including the elapsed share of processes still waiting now (mirroring how
// BusyTime counts current holders).
func (r *Resource) QueueWait() Time {
	total := r.waited
	for w := r.waitH; w != nil; w = w.wnext {
		total += r.k.now - max(w.wsince, r.createdAt)
	}
	return total
}

// AvgQueueDepth returns the time-averaged number of queued waiters since
// creation or the last ResetStats.
func (r *Resource) AvgQueueDepth() float64 {
	elapsed := r.k.now - r.createdAt
	if elapsed <= 0 {
		return 0
	}
	integral := r.qInt + float64(r.nwait)*float64(r.k.now-r.lastChange)
	return integral / float64(elapsed)
}

// ResetStats restarts utilization AND queueing accounting at the current
// instant without touching current holders or waiters (used to exclude
// warmup from measurements). Processes already queued at the reset charge
// only their post-reset wait.
func (r *Resource) ResetStats() {
	r.busyInt = 0
	r.qInt = 0
	r.acquires = 0
	r.waits = 0
	r.waited = 0
	r.lastChange = r.k.now
	r.createdAt = r.k.now
}
