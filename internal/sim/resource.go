package sim

// fifo is the admission core that Resource and Credits share: a counted
// pool of units with strict FIFO admission. A large request at the head of
// the queue blocks smaller requests behind it, which keeps service order
// deterministic and fair.
//
// Waiters queue on the intrusive list through each Proc's wnext link; the
// requested unit count and grant flag live in the Proc's reusable wait
// fields, so a contended wait does not allocate.
type fifo struct {
	k     *Kernel
	cap   int
	inUse int
	waitH *Proc
	waitT *Proc
}

func (f *fifo) init(k *Kernel, capacity int) {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	*f = fifo{k: k, cap: capacity}
}

// claim takes n units and reports true when they are free and nobody is
// queued, or queues p FIFO and reports false. The grant hands p the units
// and wakes it.
func (f *fifo) claim(p *Proc, n int) bool {
	if n < 1 || n > f.cap {
		panic("sim: bad acquire count")
	}
	if f.waitH == nil && f.inUse+n <= f.cap {
		f.inUse += n
		return true
	}
	p.wn = n
	p.wgranted = false
	pushWaiter(&f.waitH, &f.waitT, p)
	return false
}

// acquire blocks p until it is granted n units.
func (f *fifo) acquire(p *Proc, n int) {
	if f.claim(p, n) {
		return
	}
	for !p.wgranted {
		p.park()
	}
}

// release returns n units and grants as many FIFO waiters as now fit.
func (f *fifo) release(n int) {
	if n < 1 || n > f.inUse {
		panic("sim: bad release count")
	}
	f.inUse -= n
	for f.waitH != nil && f.inUse+f.waitH.wn <= f.cap {
		w := popWaiter(&f.waitH, &f.waitT)
		w.wgranted = true
		f.inUse += w.wn
		f.k.wake(w)
	}
}

// Resource is a service resource: CPUs, DMA engines, disk arms and links,
// which a proc holds for a modelled service time and no longer. It
// integrates occupancy over time so experiments can report busy time (e.g.
// client CPU busy fraction, the paper's key DAFS-vs-NFS metric).
//
// A proc holds units only through Use and UseFunc, which queue FIFO for
// them, hold them for the service time and release them; nothing else can
// run on the proc in between, so a holder never waits on another proc. An
// engine takes the same steps without blocking: Claim, Sleep for the
// service time, Release.
type Resource struct {
	q          fifo
	busyInt    float64 // integral of inUse over time, unit-ns
	lastChange Time
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(k *Kernel, capacity int) *Resource {
	r := &Resource{lastChange: k.now}
	r.q.init(k, capacity)
	return r
}

func (r *Resource) account() {
	now := r.q.k.now
	dt := float64(now - r.lastChange)
	r.busyInt += float64(r.q.inUse) * dt
	r.lastChange = now
}

// Use acquires n units, holds them for d of virtual time, and releases them.
// It is the standard way to charge work to a CPU or engine.
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.acquire(p, n)
	p.Wait(d)
	r.Release(n)
}

// UseFunc is Use with a hold length worked out when the units are granted:
// d runs once p holds them, so it can read state that earlier holders
// left (a disk arm's position). d must not park; one that does ends the
// run with an error naming p.
func (r *Resource) UseFunc(p *Proc, n int, d func() Time) {
	r.acquire(p, n)
	p.holds++
	t := d()
	p.holds--
	p.Wait(t)
	r.Release(n)
}

func (r *Resource) acquire(p *Proc, n int) {
	r.account()
	r.q.acquire(p, n)
}

// Claim is Use's first step for an engine: it takes n units and reports
// true when they are free and nobody is queued, or queues p FIFO and
// reports false, and the grant steps p holding them. A goroutine proc
// holds units only through Use; Claim from one panics.
func (r *Resource) Claim(p *Proc, n int) bool {
	if p.step == nil {
		panic("sim: Resource.Claim from a goroutine proc (a proc holds units through Use)")
	}
	r.account()
	return r.q.claim(p, n)
}

// Release returns n units and grants as many FIFO waiters as now fit. It
// is Use's last step for an engine.
func (r *Resource) Release(n int) {
	r.account()
	r.q.release(n)
}

// BusyTime returns the cumulative busy time normalized by capacity: a
// single-unit resource held for 5ms reports 5ms; a 2-unit resource with one
// unit held for 5ms reports 2.5ms.
func (r *Resource) BusyTime() Time {
	integral := r.busyInt + float64(r.q.inUse)*float64(r.q.k.now-r.lastChange)
	return Time(integral / float64(r.q.cap))
}

// Credits is a flow-control window: a DAFS session's request credits, MPI's
// eager credits, NFS's in-flight slots. A sender acquires a credit and
// holds it across a round trip, parking on anything meanwhile, and the
// peer's arrival gives it back, often from another proc. Admission is the
// same strict FIFO as Resource's; credits keep no busy time.
type Credits struct{ q fifo }

// Init sets up a window of n credits (>= 1) in place: a window lives in
// its owner's record.
func (c *Credits) Init(k *Kernel, n int) { c.q.init(k, n) }

// Acquire blocks p until n credits are free, FIFO behind earlier waiters.
func (c *Credits) Acquire(p *Proc, n int) { c.q.acquire(p, n) }

// Release returns n credits and grants as many FIFO waiters as now fit.
// Any proc, or kernel context, may return credits another proc acquired.
func (c *Credits) Release(n int) { c.q.release(n) }

// InUse returns the credits currently held.
//
//mpiolint:ignore reach test probe: TestSessionFailureFailsPendingCalls reads a failed session's credits for a leak
func (c *Credits) InUse() int { return c.q.inUse }
