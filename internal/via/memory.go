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
// as one window, whose host bytes exist only while a message does: Slot
// materialises a slot from the provider's free list on first touch, by the
// host or by the NIC landing a message in it, and Release hands it back
// once the message is dead. No descriptor or RDMA may cross a slot
// boundary.
type Region struct {
	Handle MemHandle

	nic *NIC
	buf []byte // flat regions

	slots [][]byte  // ring regions: slot i's bytes, nil until materialised
	free  *slotFree // ring regions: where slots come from and go back to
}

// Register pins buf and installs its translation on the NIC. The
// registration cost (pinning plus NIC table update) is charged to the host
// CPU in the calling process — the cost the paper's registration-cache
// experiment measures.
func (n *NIC) Register(p *sim.Proc, buf []byte) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(len(buf)))
	return n.RegisterCached(buf)
}

// RegisterRing registers a ring of slots message slots of size bytes each,
// charged like Register of one slots*size buffer.
func (n *NIC) RegisterRing(p *sim.Proc, slots, size int) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(slots*size))
	return n.RegisterCachedRing(slots, size)
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
// of band (an MPI world's bounce rings). Use DropCached to release it.
func (n *NIC) RegisterCachedRing(slots, size int) *Region {
	return n.install(&Region{slots: make([][]byte, slots), free: n.prov.slotFree(size)})
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
func (n *NIC) Regions() int { return len(n.regions) }

// Len returns the region's size in bytes.
func (r *Region) Len() int {
	if r.free != nil {
		return len(r.slots) * r.free.size
	}
	return len(r.buf)
}

// Bytes exposes a flat region's memory so the application can fill or read
// it, the way a user buffer is used around VIA operations. A ring has no
// flat view; use Slot.
func (r *Region) Bytes() []byte {
	if r.free != nil {
		panic("via: Bytes of a ring region")
	}
	return r.buf
}

// Slot returns the bytes of a ring's slot i, taking them from the
// provider's free list if the slot holds none. A slot that was never
// touched or was last released reads as zeros.
func (r *Region) Slot(i int) []byte {
	s := r.slots[i]
	if s == nil {
		s = r.nic.prov.takeSlot(r.free)
		r.slots[i] = s
	}
	return s
}

// Release declares the message in a ring's slot i dead: it clears the
// first n bytes, the most any use of the slot wrote, and gives the slot's
// bytes back to the free list. The caller must hold no slice of them and
// have no descriptor posted over the slot. Releasing a slot that holds no
// bytes, or a slot of a deregistered ring, does nothing.
func (r *Region) Release(i, n int) {
	s := r.slots[i]
	if s == nil || !r.Valid() {
		return
	}
	clear(s[:n])
	r.slots[i] = nil
	r.nic.prov.putSlot(r.free, s)
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
	if r.free == nil {
		return true
	}
	return off/r.free.size < len(r.slots) && off%r.free.size+n <= r.free.size
}

// at returns the n bytes at off, which covers has vouched for.
func (r *Region) at(off, n int) []byte {
	if r.free == nil {
		return r.buf[off : off+n]
	}
	o := off % r.free.size
	return r.Slot(off / r.free.size)[o : o+n]
}

// lookup validates a remote handle and byte range; it returns the region
// only if the whole range is addressable in it.
func (n *NIC) lookup(h MemHandle, off, length int) *Region {
	r := n.regions[h]
	if r == nil || !r.covers(off, length) {
		return nil
	}
	return r
}

// slabSlots is how many slot buffers one refill of a free list allocates
// together: one allocation per slab, not per slot.
const slabSlots = 8

// slotFree is the provider's free list of ring slot buffers of one size.
// Every buffer on it reads as zeros, as long as each Release names all the
// bytes its message wrote.
type slotFree struct {
	size int
	bufs [][]byte
}

// RingMem is the provider's ledger of ring slot memory, in bytes.
type RingMem struct {
	Live     int // materialised slots of registered rings
	Idle     int // slot buffers on the free lists
	IdleHigh int // the most Idle has been
}

// RingMem reports how much host memory ring slots hold.
func (pr *Provider) RingMem() RingMem {
	m := RingMem{Idle: pr.ringIdle, IdleHigh: pr.ringIdleHigh}
	for _, n := range pr.nics {
		for _, r := range n.regions {
			for _, s := range r.slots {
				m.Live += len(s)
			}
		}
	}
	return m
}

// slotFree returns the free list of size-byte slots.
func (pr *Provider) slotFree(size int) *slotFree {
	for _, f := range pr.slotFrees {
		if f.size == size {
			return f
		}
	}
	f := &slotFree{size: size}
	pr.slotFrees = append(pr.slotFrees, f)
	return f
}

// takeSlot removes a buffer from f, refilling it with a slab first if it
// is empty.
func (pr *Provider) takeSlot(f *slotFree) []byte {
	if len(f.bufs) == 0 {
		slab := make([]byte, slabSlots*f.size)
		for i := range slabSlots {
			f.bufs = append(f.bufs, slab[i*f.size:(i+1)*f.size:(i+1)*f.size])
		}
		pr.addIdle(slabSlots * f.size)
	}
	s := f.bufs[len(f.bufs)-1]
	f.bufs = f.bufs[:len(f.bufs)-1]
	pr.ringIdle -= f.size
	return s
}

// putSlot gives a cleared buffer back to f.
func (pr *Provider) putSlot(f *slotFree, s []byte) {
	f.bufs = append(f.bufs, s)
	pr.addIdle(f.size)
}

func (pr *Provider) addIdle(n int) {
	pr.ringIdle += n
	pr.ringIdleHigh = max(pr.ringIdleHigh, pr.ringIdle)
}
