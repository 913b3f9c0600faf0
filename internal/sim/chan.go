package sim

// Chan is a FIFO message queue between simulated processes, analogous to a
// buffered Go channel in virtual time. A capacity <= 0 means unbounded
// (sends never block). Message transfer itself takes zero virtual time;
// components model transfer costs explicitly before sending.
//
// The buffer is a ring (head/count over a power-of-two slice) and waiters
// are linked through each Proc's intrusive wnext field, so steady-state
// send/recv traffic does not allocate or shift slices.
//
// Wake discipline: a waiter is popped from its wait list before being woken,
// so every park has at most one pending wake (see proc.go).
type Chan[T any] struct {
	k      *Kernel
	buf    []T // ring storage; len(buf) is a power of two (or 0)
	head   int
	count  int
	cap    int
	recvH  *Proc // parked receivers, FIFO
	recvT  *Proc
	sendH  *Proc // parked senders (bounded channels only), FIFO
	sendT  *Proc
	closed bool
}

// NewChan creates a channel. capacity <= 0 means unbounded.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	c := new(Chan[T])
	c.Init(k, capacity, nil)
	return c
}

// Init sets up a channel in place, for a channel embedded in its owner's
// record. room, when not empty, is the first ring: storage the caller owns,
// used until the channel first holds more than len(room) messages. Its
// length must be a power of two.
func (c *Chan[T]) Init(k *Kernel, capacity int, room []T) {
	if n := len(room); n&(n-1) != 0 {
		panic("sim: channel room is not a power of two")
	}
	*c = Chan[T]{k: k, cap: capacity, buf: room}
}

// Len returns the number of buffered messages.
func (c *Chan[T]) Len() int { return c.count }

// Closed reports whether the channel has been closed.
func (c *Chan[T]) Closed() bool { return c.closed }

// put appends v to the ring, growing it when full.
func (c *Chan[T]) put(v T) {
	if c.count == len(c.buf) {
		n := len(c.buf) * 2
		if n == 0 {
			n = 8
		}
		grown := make([]T, n)
		m := copy(grown, c.buf[c.head:])
		copy(grown[m:], c.buf[:c.head])
		c.buf = grown
		c.head = 0
	}
	c.buf[(c.head+c.count)&(len(c.buf)-1)] = v
	c.count++
}

// take removes and returns the ring's oldest element.
func (c *Chan[T]) take() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.count--
	return v
}

// Close marks the channel closed and wakes all parked receivers and senders.
// Further sends panic; receives drain the buffer and then report !ok.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for {
		p := popWaiter(&c.recvH, &c.recvT)
		if p == nil {
			break
		}
		c.k.wake(p)
	}
	for {
		p := popWaiter(&c.sendH, &c.sendT)
		if p == nil {
			break
		}
		c.k.wake(p)
	}
}

// Send enqueues v, blocking p while a bounded channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	for !c.Offer(p, v) {
		p.park()
	}
}

// Offer is Send's non-blocking step: it enqueues v and reports true, or,
// while a bounded channel is full, enlists p as a sender — the next
// receive wakes it — and reports false. Offering on a closed channel
// panics.
func (c *Chan[T]) Offer(p *Proc, v T) bool {
	if c.TrySend(v) {
		return true
	}
	if c.closed {
		panic("sim: send on closed channel")
	}
	pushWaiter(&c.sendH, &c.sendT, p)
	return false
}

// TrySend enqueues v without blocking; it reports false if the channel is
// full or closed.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed || (c.cap > 0 && c.count >= c.cap) {
		return false
	}
	c.put(v)
	if w := popWaiter(&c.recvH, &c.recvT); w != nil {
		c.k.wake(w)
	}
	return true
}

// Recv dequeues the oldest message, blocking p while the channel is empty.
// ok is false only when the channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for {
		if v, ok = c.Poll(p); ok || c.closed {
			return v, ok
		}
		p.park()
	}
}

// Poll is Recv's non-blocking step: it dequeues the oldest message, or,
// while the channel is empty and open, enlists p as a receiver — the next
// send wakes it — and reports false. A closed, drained channel reports
// false and enlists nothing.
func (c *Chan[T]) Poll(p *Proc) (v T, ok bool) {
	if v, ok = c.TryRecv(); !ok && !c.closed {
		pushWaiter(&c.recvH, &c.recvT, p)
	}
	return v, ok
}

// TryRecv dequeues without blocking; ok is false if nothing is buffered.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.count == 0 {
		var zero T
		return zero, false
	}
	v = c.take()
	if w := popWaiter(&c.sendH, &c.sendT); w != nil {
		c.k.wake(w)
	}
	return v, true
}
