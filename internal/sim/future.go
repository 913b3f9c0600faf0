package sim

// Future is a one-shot value that processes can block on, used for
// completion notification (descriptor done, RPC reply, request finished).
// Waiters link through their intrusive wnext field, so blocking on a future
// allocates nothing beyond the future itself.
type Future[T any] struct {
	k     *Kernel
	set   bool
	val   T
	waitH *Proc
	waitT *Proc
}

// NewFuture creates an unset future.
func NewFuture[T any](k *Kernel) *Future[T] {
	f := new(Future[T])
	f.Init(k)
	return f
}

// Init sets up an unset future in place, for a future embedded in its
// owner's record.
func (f *Future[T]) Init(k *Kernel) { *f = Future[T]{k: k} }

// Done reports whether the value has been set.
func (f *Future[T]) Done() bool { return f.set }

// Set resolves the future and wakes all waiters. Setting twice panics:
// completions must be delivered exactly once.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("sim: future set twice")
	}
	f.set = true
	f.val = v
	for {
		p := popWaiter(&f.waitH, &f.waitT)
		if p == nil {
			break
		}
		f.k.wake(p)
	}
}

// Reset returns a resolved future to the unset state, so its owner can use
// it for the next completion. Only the owner may call it, once every
// process woken by Set has read the value.
func (f *Future[T]) Reset() {
	var zero T
	f.set, f.val = false, zero
}

// Get blocks p until the future resolves and returns the value.
func (f *Future[T]) Get(p *Proc) T {
	for !f.set {
		pushWaiter(&f.waitH, &f.waitT, p)
		p.park()
	}
	return f.val
}

// WaitGroup counts outstanding work items in virtual time.
type WaitGroup struct {
	k     *Kernel
	n     int
	waitH *Proc
	waitT *Proc
}

// NewWaitGroup creates a WaitGroup with an initial count.
func NewWaitGroup(k *Kernel, n int) *WaitGroup {
	if n < 0 {
		panic("sim: negative waitgroup count")
	}
	return &WaitGroup{k: k, n: n}
}

// Add adjusts the counter; it panics if the counter goes negative.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative waitgroup count")
	}
	if w.n == 0 {
		for {
			p := popWaiter(&w.waitH, &w.waitT)
			if p == nil {
				break
			}
			w.k.wake(p)
		}
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		pushWaiter(&w.waitH, &w.waitT, p)
		p.park()
	}
}
