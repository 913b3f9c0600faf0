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
type Region struct {
	Handle MemHandle

	nic *NIC
	buf []byte
}

// Register pins buf and installs its translation on the NIC. The
// registration cost (pinning plus NIC table update) is charged to the host
// CPU in the calling process — the cost the paper's registration-cache
// experiment measures.
func (n *NIC) Register(p *sim.Proc, buf []byte) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(len(buf)))
	return n.RegisterCached(buf)
}

// Deregister releases the registration. Outstanding descriptors that still
// reference the region will complete with ErrInvalidRegion.
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
	n.nextHandle++
	r := &Region{Handle: n.nextHandle, nic: n, buf: buf}
	n.regions[r.Handle] = r
	return r
}

// DropCached releases a RegisterCached region without CPU cost.
func (n *NIC) DropCached(r *Region) {
	if r.nic != n || !r.Valid() {
		return
	}
	delete(n.regions, r.Handle)
}

// Regions returns the number of live registrations on the NIC — pinned
// windows the host cannot reclaim until they are deregistered. Tests use
// it to assert registration hygiene: a failed dial, a torn-down session,
// or a trimmed buffer pool must not leave windows pinned.
func (n *NIC) Regions() int { return len(n.regions) }

// Len returns the region's size in bytes.
func (r *Region) Len() int { return len(r.buf) }

// Bytes exposes the underlying memory so the application can fill or read
// it, the way a user buffer is used around VIA operations.
func (r *Region) Bytes() []byte { return r.buf }

// Valid reports whether this exact region is in its NIC's registration
// table. Handles are never reused, so a deregistered region stays invalid.
func (r *Region) Valid() bool { return r.nic != nil && r.nic.regions[r.Handle] == r }

// lookup validates a remote handle and byte range; it returns the region
// only if the whole range is inside it.
func (n *NIC) lookup(h MemHandle, off, length int) *Region {
	r := n.regions[h]
	if r == nil || off < 0 || length < 0 || off+length > len(r.buf) {
		return nil
	}
	return r
}
