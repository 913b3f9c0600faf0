package sim

// Resource is a counted resource with strict FIFO admission, used to model
// CPUs, DMA engines, disk arms, and link arbitration. It integrates
// occupancy over time so experiments can report busy time (e.g. client CPU
// busy fraction, the paper's key DAFS-vs-NFS metric).
//
// Waiters queue on the intrusive list through each Proc's wnext link; the
// requested unit count and grant flag live in the Proc's reusable wait
// fields, so a contended Acquire does not allocate.
type Resource struct {
	Name string

	k     *Kernel
	cap   int
	inUse int
	waitH *Proc // FIFO admission queue
	waitT *Proc

	busyInt    float64 // integral of inUse over time, unit-ns
	lastChange Time
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
	*r = Resource{Name: name, k: k, cap: capacity, lastChange: k.now}
}

// InUse returns the currently held units.
//
//mpiolint:ignore reach test probe: TestSessionFailureFailsPendingCalls reads a failed session's credits for a leak
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	now := r.k.now
	dt := float64(now - r.lastChange)
	r.busyInt += float64(r.inUse) * dt
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
	r.account()
	if r.waitH == nil && r.inUse+n <= r.cap {
		r.inUse += n
		return true
	}
	p.wn = n
	p.wgranted = false
	pushWaiter(&r.waitH, &r.waitT, p)
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
		w.wgranted = true
		r.inUse += w.wn
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
