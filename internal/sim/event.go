package sim

import "math/bits"

// Event is one schedulable kernel action: either a proc step (proc != nil;
// the intrusive event embedded in every Proc) or a callback (fn). Events
// are intrusive — the queue links them through their next pointer — so the
// hot scheduling paths (Proc.Wait, channel/resource/future wakeups,
// pooled At callbacks, reusable AtEvent timers) enqueue without
// allocating.
//
// An Event must not be scheduled twice concurrently; Kernel.AtEvent and
// the internal schedule path panic if it is. Callers that reuse an event
// (NewEvent) may reschedule it freely once it has fired.
type Event struct {
	at  Time
	seq uint64

	next *Event // slot / free-list link

	fn     func()
	proc   *Proc
	queued bool
	pooled bool // owned by the kernel's free list (At/After callbacks)
	daemon bool // pending presence does not keep Run alive (NewDaemonEvent)
}

// The queue is a hierarchical timer wheel: wheelLevels levels of
// wheelSlots slots, level l covering 64^l nanoseconds per slot. With 5
// levels of 64 slots the wheel spans 64^5 ns ≈ 1.07 simulated seconds
// ahead of the cursor; events beyond that horizon wait in a sorted
// overflow heap and migrate into the wheel as the cursor approaches.
// Each level's occupancy is one uint64 bitmap, so finding the next
// non-empty slot is a TrailingZeros64, never a scan.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 5
)

// wheelLevel is one ring of slots; slot lists are singly linked through
// Event.next. Level-0 lists hold events of a single instant and stay
// sorted by seq; higher-level lists are unordered (cascading re-sorts
// them on the way down).
type wheelLevel struct {
	occ  uint64
	head [wheelSlots]*Event
	tail [wheelSlots]*Event
}

// eventQueue is the kernel's pending-event set, totally ordered by
// (at, seq) exactly like the container/heap queue it replaced.
//
// The wheel stays because it is faster, not because a heap would be
// wrong. A 4-ary intrusive min-heap with the same (at, seq) order passes
// every test and keeps the synthetic kernel load's event count and
// checksum (bench.RunKernelLoad, pinned by
// TestKernelLoadMatchesCommittedReport), but runs the full 10k-proc load
// at a median 1.74M events/s against the wheel's 2.69M (five alternating
// runs each on a 2-core Xeon, go1.24; ranges 1.65-1.83M and 2.24-2.83M).
//
// cur is the wheel cursor: placement of an event compares its timestamp
// against cur's bit groups, and cur only ever advances to instants that
// are <= every queued event — a popped event's instant, or the base of a
// slot being cascaded. So when control returns to a proc, cur <= now, and
// the kernel never schedules before now: no event can land behind the
// cursor.
type eventQueue struct {
	cur      Time
	n        int
	levels   [wheelLevels]wheelLevel
	overflow []*Event // min-heap by (at, seq): beyond the wheel horizon
}

// evBefore is the queue's total order.
func evBefore(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push enqueues an event.
func (q *eventQueue) push(e *Event) {
	q.n++
	q.place(e)
}

// place routes an event to a wheel slot or the overflow heap. It does not
// touch the count (cascade and migration re-place events that are already
// counted).
func (q *eventQueue) place(e *Event) {
	if e.at < q.cur {
		panic("sim: event behind the wheel cursor")
	}
	d := uint64(e.at) ^ uint64(q.cur)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if d>>uint((lvl+1)*wheelBits) == 0 {
			q.placeSlot(lvl, e)
			return
		}
	}
	q.placeOverflow(e)
}

// placeSlot links an event into its slot at the given level.
func (q *eventQueue) placeSlot(lvl int, e *Event) {
	slot := int(uint64(e.at)>>(uint(lvl)*wheelBits)) & wheelMask
	l := &q.levels[lvl]
	l.occ |= 1 << uint(slot)
	tail := l.tail[slot]
	if tail == nil {
		e.next = nil
		l.head[slot], l.tail[slot] = e, e
		return
	}
	if lvl > 0 || tail.seq < e.seq {
		// Fresh events carry the largest seq, so level 0 appends are the
		// common case; higher levels are unordered anyway.
		e.next = nil
		tail.next = e
		l.tail[slot] = e
		return
	}
	// A cascaded or migrated event with an older seq: sorted insertion
	// keeps the level-0 single-instant list in dispatch order.
	if head := l.head[slot]; e.seq < head.seq {
		e.next = head
		l.head[slot] = e
		return
	}
	prev := l.head[slot]
	for prev.next != nil && prev.next.seq < e.seq {
		prev = prev.next
	}
	e.next = prev.next
	prev.next = e
	if e.next == nil {
		l.tail[slot] = e
	}
}

// placeOverflow pushes onto the far-future min-heap.
func (q *eventQueue) placeOverflow(e *Event) {
	q.overflow = append(q.overflow, e)
	i := len(q.overflow) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !evBefore(e, q.overflow[par]) {
			break
		}
		q.overflow[i] = q.overflow[par]
		i = par
	}
	q.overflow[i] = e
}

// popOverflow removes and returns the heap minimum.
func (q *eventQueue) popOverflow() *Event {
	h := q.overflow
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h[last] = nil
	q.overflow = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && evBefore(h[c+1], h[c]) {
				c++
			}
			if !evBefore(h[c], e) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = e
	}
	return top
}

// scanWheel finds the lowest-level occupied slot at or after the cursor.
// For level 0 the returned time is the exact instant of every event in
// the slot; for higher levels it is the base of the slot's range (a lower
// bound on its events), which pop uses to cascade.
func (q *eventQueue) scanWheel() (t Time, lvl, slot int, ok bool) {
	c := uint64(q.cur)
	for lvl = 0; lvl < wheelLevels; lvl++ {
		shift := uint(lvl) * wheelBits
		cslot := uint(c>>shift) & wheelMask
		mask := ^uint64(0) << cslot
		if lvl > 0 {
			// The cursor's own slot at levels >= 1 is always empty (its
			// events would have been placed, or cascaded, lower).
			mask <<= 1
		}
		m := q.levels[lvl].occ & mask
		if m == 0 {
			continue
		}
		s := bits.TrailingZeros64(m)
		base := c &^ (uint64(1)<<(shift+wheelBits) - 1)
		return Time(base | uint64(s)<<shift), lvl, s, true
	}
	return 0, 0, 0, false
}

// cascade redistributes a level's slot into lower levels relative to the
// (just advanced) cursor.
func (q *eventQueue) cascade(lvl, slot int) {
	l := &q.levels[lvl]
	e := l.head[slot]
	l.head[slot], l.tail[slot] = nil, nil
	l.occ &^= 1 << uint(slot)
	for e != nil {
		next := e.next
		e.next = nil
		q.place(e)
		e = next
	}
}

// pop removes and returns the globally earliest event by (at, seq), or
// nil if the queue is empty.
func (q *eventQueue) pop() *Event {
	for {
		if t, lvl, slot, ok := q.scanWheel(); ok {
			// An overflow event at or before the wheel candidate must
			// migrate first: it may share the candidate's instant with a
			// smaller seq, or precede it outright. Checking against the
			// slot *base* before cascading keeps the cursor from ever
			// passing the overflow minimum.
			if len(q.overflow) > 0 && q.overflow[0].at <= t {
				q.place(q.popOverflow())
				continue
			}
			if lvl > 0 {
				q.cur = t
				q.cascade(lvl, slot)
				continue
			}
			l := &q.levels[0]
			e := l.head[slot]
			l.head[slot] = e.next
			if e.next == nil {
				l.tail[slot] = nil
				l.occ &^= 1 << uint(slot)
			}
			e.next = nil
			q.cur = t
			q.n--
			e.queued = false
			return e
		}
		if len(q.overflow) == 0 {
			return nil
		}
		// Wheel empty: jump the cursor to the far-future minimum and pull
		// it (and, next iterations, its horizon-mates) into the wheel.
		q.cur = q.overflow[0].at
		q.place(q.popOverflow())
	}
}
