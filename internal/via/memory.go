package via

import "dafsio/internal/sim"

// MemHandle is the protection tag a NIC hands out for a registered region.
// Remote peers must present a valid handle (and stay within its bounds) for
// RDMA access — this is the VIA memory-protection model.
type MemHandle uint32

// Region is a registered (pinned, NIC-translatable) memory area. Local
// descriptors and remote RDMA operations may only touch registered memory.
// The NIC's registration table holds the one *Region it issued per handle;
// a copy, a forged value or a deregistered region is not in it, and the
// doorbell rejects it.
//
// A region is flat or a ring. A flat region is one buffer the host owns
// (Bytes). A ring is a row of equal message slots, registered and charged
// as one window, whose host bytes exist only while a message does, and
// only as many as it needs: a slot holds a buffer of the provider pool's
// class for its message (see bufPool), taken on first touch, by the host
// (Slot, Grow) or by the NIC landing a message in it, and Release hands it
// back once the message is dead. No descriptor or RDMA may cross a slot
// boundary.
type Region struct {
	Handle MemHandle

	nic *NIC
	buf []byte // flat regions

	slots [][]byte // ring regions: slot i's pool buffer, nil while it holds no message
	size  int      // ring regions: the slot size (0: a flat region)
}

// Register pins buf and installs its translation on the NIC. The
// registration cost (pinning plus NIC table update) is charged to the host
// CPU in the calling process — the cost the paper's registration-cache
// experiment measures.
func (n *NIC) Register(p *sim.Proc, buf []byte) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(len(buf)))
	return n.RegisterCached(buf)
}

// RegisterRing registers a ring of len(slots) message slots of size bytes
// each into r, charged like Register of one len(slots)*size buffer. The
// caller owns r and slots, the ring's slot table, as with RegisterCachedIn:
// a session keeps both inside its own record, so a ring costs no
// allocation of its own.
func (n *NIC) RegisterRing(p *sim.Proc, r *Region, slots [][]byte, size int) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(len(slots)*size))
	return n.RegisterCachedRing(r, slots, size)
}

// Deregister releases the registration. Outstanding descriptors that still
// reference the region will complete with ErrInvalidRegion. A ring's
// materialised slots are not pooled: a host slice or a posted descriptor
// may still point at them, so they go to the garbage collector with the
// region.
func (n *NIC) Deregister(p *sim.Proc, r *Region) {
	if r.nic != n || !r.Valid() {
		return
	}
	n.Node.Compute(p, n.prov.Prof.MemDeregCost)
	delete(n.regions, r.Handle)
}

// RegisterCached installs a registration with no CPU cost, modeling memory
// that was pinned and registered ahead of time — the way a DAFS server
// pre-registers its buffer cache at boot so per-request registration never
// appears on the data path. Use DropCached to release it.
func (n *NIC) RegisterCached(buf []byte) *Region {
	return n.RegisterCachedIn(new(Region), buf)
}

// RegisterCachedIn is RegisterCached into a record the caller owns, so a
// caller that registers one window at a time reuses one record instead of
// allocating one per registration. The record must not be registered:
// one that was is reusable once DropCached or Deregister has released it.
// Each registration gets a fresh handle, so a peer still naming an old one
// is refused; a local descriptor holds the record itself, so the caller
// must have none outstanding over it when it reuses the record.
func (n *NIC) RegisterCachedIn(r *Region, buf []byte) *Region {
	if r.Valid() {
		panic("via: RegisterCachedIn of a registered region")
	}
	*r = Region{buf: buf}
	return n.install(r)
}

// RegisterCachedRing is RegisterRing with no CPU cost, for rings set up out
// of band (an MPI world's bounce rings). Use DropCached to release it. The
// record must not be registered; the slot table starts empty, and what a
// previous registration left in it goes to the garbage collector.
func (n *NIC) RegisterCachedRing(r *Region, slots [][]byte, size int) *Region {
	if r.Valid() {
		panic("via: RegisterCachedRing of a registered region")
	}
	clear(slots)
	*r = Region{slots: slots, size: size}
	return n.install(r)
}

func (n *NIC) install(r *Region) *Region {
	n.nextHandle++
	r.Handle, r.nic = n.nextHandle, n
	n.regions[r.Handle] = r
	return r
}

// DropCached releases a RegisterCached region without CPU cost. Like
// Deregister, it leaves a ring's slots to the garbage collector.
func (n *NIC) DropCached(r *Region) {
	if r.nic != n || !r.Valid() {
		return
	}
	delete(n.regions, r.Handle)
}

// Regions returns the number of live registrations on the NIC — pinned
// windows the host cannot reclaim until they are deregistered. Tests use
// it to assert registration hygiene: a failed dial, a torn-down session,
// or a trimmed buffer pool must not leave windows pinned. A ring counts
// once.
//
//mpiolint:ignore reach test probe: TestCloseUnregisters and FuzzClientReply count a NIC's live registrations for a leak
func (n *NIC) Regions() int { return len(n.regions) }

// Len returns the region's size in bytes.
func (r *Region) Len() int {
	if r.size > 0 {
		return len(r.slots) * r.size
	}
	return len(r.buf)
}

// Slot returns the bytes ring slot i holds, taking the pool's smallest
// class for the slot if it holds none. A slot that was never touched or
// was last released reads as zeros.
func (r *Region) Slot(i int) []byte { return r.Grow(i, 0) }

// Grow returns the bytes of ring slot i, at least n of them, or the whole
// slot when n exceeds it. A slot that holds fewer moves to the pool's
// class for n, keeping its bytes; the bytes past them read as zeros.
func (r *Region) Grow(i, n int) []byte {
	s := r.slots[i]
	if s != nil && len(s) >= min(n, r.size) {
		return s
	}
	pool := &r.nic.prov.pool
	t := pool.take(n, r.size)
	if s != nil {
		copy(t, s)
		if r.Valid() {
			// A deregistered ring's buffers never go back (see Release).
			clear(s)
			pool.put(s)
		}
	}
	r.slots[i] = t
	return t
}

// Release declares the message in a ring's slot i dead: it clears the
// first n bytes, the most any use of the slot wrote, and gives the slot's
// buffer back to the pool. The caller must hold no slice of it and have
// no descriptor posted over the slot. Releasing a slot that holds no
// buffer, or a slot of a deregistered ring, does nothing.
func (r *Region) Release(i, n int) {
	s := r.slots[i]
	if s == nil || !r.Valid() {
		return
	}
	clear(s[:min(n, len(s))])
	r.slots[i] = nil
	r.nic.prov.pool.put(s)
}

// Valid reports whether this exact region is in its NIC's registration
// table. Handles are never reused, so a deregistered region stays invalid.
func (r *Region) Valid() bool { return r.nic != nil && r.nic.regions[r.Handle] == r }

// covers reports whether [off, off+n) is addressable in the region: inside
// it and, in a ring, inside one slot.
func (r *Region) covers(off, n int) bool {
	if off < 0 || n < 0 || off+n > r.Len() {
		return false
	}
	if r.size == 0 {
		return true
	}
	return off/r.size < len(r.slots) && off%r.size+n <= r.size
}

// at returns the n bytes at off, which covers has vouched for. In a ring
// the slot grows to hold them.
func (r *Region) at(off, n int) []byte {
	if r.size == 0 {
		return r.buf[off : off+n]
	}
	o := off % r.size
	return r.Grow(off/r.size, o+n)[o : o+n]
}

// land copies a data cell of a message that lands at off (a send, an RDMA
// write or an RDMA read's response) into the region. A ring slot takes the
// class of the whole message on its first cell.
func (r *Region) land(off int, c *cell) { copy(r.at(off+c.off, c.total-c.off), c.data) }

// lookup validates a remote handle and byte range; it returns the region
// only if the whole range is addressable in it.
func (n *NIC) lookup(h MemHandle, off, length int) *Region {
	r := n.regions[h]
	if r == nil || !r.covers(off, length) {
		return nil
	}
	return r
}

// The ladder of the pool's classes below a consumer's maximum: 256 B,
// 1 KiB, 4 KiB.
const (
	firstClass = 256
	lastRung   = 4 << 10
)

// slabSlots is how many buffers one refill of a class allocates together:
// one allocation per slab, not per buffer.
const slabSlots = 8

// classOf is the size of the class for n bytes under a maximum of max.
func classOf(n, max int) int {
	for c := firstClass; c <= lastRung && c < max; c *= 4 {
		if n <= c {
			return c
		}
	}
	return max
}

// bufClass is one class of the pool: its idle buffers, all size bytes.
type bufClass struct {
	size int
	idle [][]byte
}

// bufPool is the provider's buffer pool, which holds the host bytes of
// every message in flight — ring slots and the payloads of wire cells —
// and its ledger. A buffer's class is the first rung of the ladder that
// fits it, below the consumer's own maximum, or that maximum: a ring's
// slot size, a cell's CellSize − CellHeader. So a 60-byte message holds
// 256 bytes, not a whole slot. Buffers of one size are one class, whoever
// takes them. Every idle buffer reads as zeros: whoever gives one back
// has cleared what it wrote.
type bufPool struct {
	classes  []*bufClass
	cells    int // bytes the payloads of cells in flight hold
	idle     int // bytes of the idle buffers
	idleHigh int
}

// RingMem is the ledger of the provider's buffer pool, in bytes.
type RingMem struct {
	Live     int // ring slots of registered rings holding a message
	Cells    int // payloads of wire cells in flight
	Idle     int // pool buffers nothing holds
	IdleHigh int // the most Idle has been
}

// RingMem reports how much host memory the provider's message buffers
// hold.
//
//mpiolint:ignore reach test probe: TestIdleSessionHoldsNoSlotMemory reads the provider's live and idle slot bytes
func (pr *Provider) RingMem() RingMem {
	m := RingMem{Cells: pr.pool.cells, Idle: pr.pool.idle, IdleHigh: pr.pool.idleHigh}
	for _, n := range pr.nics {
		for _, r := range n.regions {
			for _, s := range r.slots {
				m.Live += len(s)
			}
		}
	}
	return m
}

// class returns the class of size-byte buffers.
func (bp *bufPool) class(size int) *bufClass {
	for _, c := range bp.classes {
		if c.size == size {
			return c
		}
	}
	c := &bufClass{size: size}
	bp.classes = append(bp.classes, c)
	return c
}

// take removes a buffer of the class for n bytes under max, refilling the
// class with a slab first if it has none idle.
func (bp *bufPool) take(n, max int) []byte {
	c := bp.class(classOf(n, max))
	if len(c.idle) == 0 {
		slab := make([]byte, slabSlots*c.size)
		for i := range slabSlots {
			c.idle = append(c.idle, slab[i*c.size:(i+1)*c.size:(i+1)*c.size])
		}
		bp.addIdle(slabSlots * c.size)
	}
	b := c.idle[len(c.idle)-1]
	c.idle = c.idle[:len(c.idle)-1]
	bp.idle -= c.size
	return b
}

// put gives a cleared buffer back to its class.
func (bp *bufPool) put(b []byte) {
	b = b[:cap(b)]
	c := bp.class(len(b))
	c.idle = append(c.idle, b)
	bp.addIdle(len(b))
}

func (bp *bufPool) addIdle(n int) {
	bp.idle += n
	bp.idleHigh = max(bp.idleHigh, bp.idle)
}
