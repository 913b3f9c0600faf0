package mpiio

import (
	"slices"

	"dafsio/internal/aggregate"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// The striped driver's Driver and Handle surface: every method here builds
// the work for its operation and hands it to the dispatch core.

// nameWork is a name-addressed operation on every rank object of a file:
// the Lookup and Create waves of Open, the Remove wave of Delete.
type nameWork struct {
	d    *striped
	kind opKind
	name string
	fhs  [][]uint64 // opLookup, opCreate: resolved handles, per server per rank

	answered, absent int // opRemove: objects heard from, and how many did not exist
}

func (w *nameWork) primary(u int) int     { return u }
func (w *nameWork) present(t, r int) bool { return true }
func (w *nameWork) stage(*sim.Proc, int)  {}

func (w *nameWork) request(u, t, r int) request {
	return request{kind: w.kind, name: w.d.objName(w.name, r)}
}

func (w *nameWork) absorb(u, t, r, v int) {
	if w.kind != opRemove {
		w.fhs[t][r] = uint64(v)
		return
	}
	w.answered++
	if v == 0 {
		w.absent++
	}
}

// open resolves every rank's stripe object on every server, creating the
// missing ones when the mode allows. The Lookups go out as one wave — the
// sessions are independent, so the latency is one round trip rather than
// Width of them — and the Creates for the objects that were absent as a
// second. Servers whose session is down or fails mid-open are skipped
// (their handles stay absent); the open succeeds as long as every primary
// keeps at least one resolvable replica.
func (d *striped) open(p *sim.Proc, name string, mode int) (*stripedHandle, error) {
	if err := checkAccessMode(mode); err != nil {
		return nil, err
	}
	st := d.striping
	h := &stripedHandle{drv: d, fhs: make([][]uint64, st.Width), name: name, mode: mode}
	rows, r := make([]uint64, st.Width*st.R()), st.R()
	for t := range h.fhs {
		h.fhs[t] = rows[t*r : (t+1)*r : (t+1)*r]
	}
	fl := d.grid()
	if err := d.wave(p, &nameWork{d: d, kind: opLookup, name: name, fhs: h.fhs}, fl); err != nil {
		return nil, err
	}
	var lastSess error
	var missing []flight // objects that need a Create
	found := 0
	for _, f := range fl {
		switch {
		case f.op == nil:
			lastSess = f.err
		case h.fhs[f.t][f.r] != 0:
			found++
		default:
			missing = append(missing, flight{u: f.u, t: f.t, r: f.r})
		}
	}
	switch {
	case len(missing) > 0 && mode&ModeCreate == 0:
		return nil, ErrNoEnt
	case found > 0 && mode&ModeExcl != 0:
		return nil, ErrExist
	}
	if err := d.wave(p, &nameWork{d: d, kind: opCreate, name: name, fhs: h.fhs}, missing); err != nil {
		return nil, err
	}
	for _, f := range missing {
		if f.op == nil {
			lastSess = f.err
		}
	}
	// Degraded or not, every primary must keep at least one replica.
	for s := 0; s < st.Width; s++ {
		kept := false
		for r := 0; r < st.R() && !kept; r++ {
			kept = h.present(st.ReplicaServer(s, r), r)
		}
		if !kept {
			return nil, d.allDown(lastSess)
		}
	}
	d.handles = append(d.handles, h)
	if d.next != nil {
		// A reshape is in flight: the new handle joins the dual-write
		// regime so writes it issues land on both layouts.
		if err := d.next.attach(p, h); err != nil {
			h.Close(p)
			return nil, err
		}
	}
	return h, nil
}

// Open implements Driver.
func (d *striped) Open(p *sim.Proc, name string, mode int) (Handle, error) {
	h, err := d.open(p, name, mode)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Delete implements Driver: every rank's stripe object is removed on every
// live server, all removals in flight at once. Down servers are skipped —
// fail-stop leaves their orphan objects behind.
func (d *striped) Delete(p *sim.Proc, name string) error {
	rm := nameWork{d: d, kind: opRemove, name: name}
	if err := d.wave(p, &rm, d.grid()); err != nil {
		return err
	}
	if rm.answered > 0 && rm.absent == rm.answered {
		return ErrNoEnt
	}
	return nil
}

type stripedHandle struct {
	drv    *striped
	fhs    [][]uint64 // per server, per replica rank; 0 = absent
	name   string
	mode   int
	closed bool

	// shadow mirrors writes onto the reshape's new layout while a
	// membership change is migrating this file; nil outside a reshape.
	shadow *stripedHandle
}

// present makes the handle the presence half of every work addressed to
// its objects.
func (h *stripedHandle) present(t, r int) bool { return h.fhs[t][r] != 0 }

// check admits a read or write at off under the handle's access mode.
func (h *stripedHandle) check(off int64, write bool) error {
	switch {
	case h.closed:
		return ErrClosed
	case off < 0:
		return ErrNegative
	case write && h.mode&ModeRdOnly != 0:
		return ErrReadOnly
	case !write && h.mode&ModeWrOnly != 0:
		return ErrWriteOnly
	}
	return nil
}

// pin registers buf when some fragment is too large to go inline, and
// returns the registration with where buf starts in it. The registration
// is nil over a transport that moves no registered memory.
func (d *striped) pin(p *sim.Proc, buf []byte, frags []layout.Fragment) (*via.Region, int) {
	if d.dafsTransfer == nil {
		return nil, 0
	}
	for _, f := range frags {
		if int(f.Len) > d.DirectThreshold {
			return d.nic.Pin(p, buf)
		}
	}
	return nil, 0
}

// fragOp is a contiguous transfer in flight: one unit per stripe fragment.
// A request of up to inlineFrags fragments — every request at width 1 —
// keeps its fragments, flights and read counts in the op itself, and Wait
// hands the op back to its driver's free list, so a stream of small calls
// allocates nothing here.
type fragOp struct {
	*stripedHandle
	write  bool
	frags  []layout.Fragment
	buf    []byte
	reg    *via.Region
	regOff int // where buf starts in reg
	fl     []flight
	counts []int // reads: bytes each fragment delivered

	inline struct {
		frags  [inlineFrags]layout.Fragment
		fl     [inlineFrags]flight
		counts [inlineFrags]int
	}
}

const inlineFrags = 4

// newFragOp takes an op from the free list (or makes a chunk of them) and
// maps [off, off+len(buf)) onto it.
func (d *striped) newFragOp(h *stripedHandle, off int64, buf []byte, write bool) *fragOp {
	var o *fragOp
	if n := len(d.free); n > 0 {
		o, d.free = d.free[n-1], d.free[:n-1]
	} else {
		o = d.makeFragOps()
	}
	o.stripedHandle, o.write, o.buf = h, write, buf
	o.frags = d.striping.AppendMap(o.inline.frags[:0], off, int64(len(buf)))
	if !write {
		o.counts = zeroed(o.inline.counts[:0], len(o.frags))
	}
	return o
}

// makeFragOps makes a chunk of as many ops as the driver has made so far
// (one, the first time), so a high-water of h ops in flight — a
// per-segment call starts all of its ops before it waits any — costs
// O(log h) allocations. It returns the first and frees the rest.
func (d *striped) makeFragOps() *fragOp {
	chunk := make([]fragOp, max(1, d.madeFragOps))
	d.madeFragOps += len(chunk)
	for i := len(chunk) - 1; i > 0; i-- {
		d.free = append(d.free, &chunk[i])
	}
	return &chunk[0]
}

func (o *fragOp) primary(u int) int { return o.frags[u].Server }

func (o *fragOp) request(u, t, r int) request {
	f := o.frags[u]
	rq := request{kind: opRead, fh: o.fhs[t][r], off: f.Off, buf: o.buf[f.BufOff : f.BufOff+f.Len], reg: o.reg, regOff: o.regOff + int(f.BufOff)}
	if o.write {
		rq.kind = opWrite
	}
	return rq
}

func (o *fragOp) absorb(u, t, r, v int) {
	if !o.write {
		o.counts[u] = v
	}
}

func (o *fragOp) stage(*sim.Proc, int) {}

// Wait implements AsyncOp: a write counts every fragment some replica
// acked; a read reports the contiguous prefix (a plain sum would
// over-count past EOF holes). The op then goes back to the free list,
// cleared so that it pins no buffer, handle or session.
func (o *fragOp) Wait(p *sim.Proc) (int, error) {
	d := o.drv
	err := d.finish(p, o, o.fl, o.write)
	d.nic.Unpin(p, o.reg)
	n := len(o.buf)
	if !o.write {
		n = layout.ContiguousCount(o.frags, o.counts)
	}
	*o = fragOp{}
	d.free = append(d.free, o)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Start implements Handle: it maps [off, off+len(buf)) to stripe
// fragments and issues them all, a write to every usable replica of every
// fragment (write-all), a read to each fragment's read-any replica.
// Fragments with no usable replica at issue time are left to Wait's
// failover path. During a reshape a write is mirrored onto the new layout
// so the migrator never races foreground writes it cannot see.
func (h *stripedHandle) Start(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error) {
	if err := h.check(off, write); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp(0), nil
	}
	d := h.drv
	o := d.newFragOp(h, off, buf, write)
	o.reg, o.regOff = d.pin(p, buf, o.frags)
	var err error
	if o.fl, err = d.begin(p, o, len(o.frags), write, o.inline.fl[:0]); err != nil {
		d.nic.Unpin(p, o.reg)
		return nil, err
	}
	if !write || h.shadow == nil {
		return o, nil
	}
	sop, err := h.shadow.Start(p, off, buf, true)
	return mirror(p, o, sop, err)
}

// objWork is one metadata operation on the rank objects of an open file:
// Getattr (sizes collects each primary's answer), Setattr (sizes holds
// each primary's target) or Fsync.
type objWork struct {
	*stripedHandle
	kind  opKind
	sizes []int64 // per primary
}

func (w *objWork) primary(u int) int { return u }

func (w *objWork) request(u, t, r int) request {
	rq := request{kind: w.kind, fh: w.fhs[t][r]}
	if w.kind == opSetattr {
		rq.off = w.sizes[u]
	}
	return rq
}

func (w *objWork) absorb(u, t, r, v int) {
	if w.kind == opGetattr {
		w.sizes[u] = int64(v)
	}
}

func (w *objWork) stage(*sim.Proc, int) {}

// Size implements Handle: the logical size is recovered from the
// per-server stripe-object sizes through the layout's inverse mapping.
// Each primary's size is read from its read-any replica, the Getattrs all
// in flight at once.
func (h *stripedHandle) Size(p *sim.Proc) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	d := h.drv
	w := &objWork{stripedHandle: h, kind: opGetattr, sizes: make([]int64, d.striping.Width)}
	fl, err := d.begin(p, w, len(w.sizes), false, nil)
	if err == nil {
		err = d.finish(p, w, fl, false)
	}
	if err != nil {
		return 0, err
	}
	return d.striping.LogicalSize(w.sizes), nil
}

// writeMeta runs one acknowledgement-only operation on every rank object
// (write-all), all in flight at once, issued server by server — the order
// these requests have always gone out in, which begin's unit-major order
// is not once R > 1. Session failures on one replica are tolerated while
// every primary keeps an acked rank; servers that missed the wave are
// excluded from read-any (their metadata is stale).
func (h *stripedHandle) writeMeta(p *sim.Proc, w *objWork) error {
	d := h.drv
	fl := d.grid()
	if err := d.launch(p, w, fl); err != nil {
		return err
	}
	return d.finish(p, w, fl, true)
}

// Resize implements Handle: each rank object is set to its primary's share
// of the logical size.
func (h *stripedHandle) Resize(p *sim.Proc, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	err := h.writeMeta(p, &objWork{stripedHandle: h, kind: opSetattr, sizes: h.drv.striping.ObjectSizes(n)})
	if err == nil && h.shadow != nil {
		err = h.shadow.Resize(p, n)
	}
	return err
}

// Sync implements Handle.
func (h *stripedHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	err := h.writeMeta(p, &objWork{stripedHandle: h, kind: opSync})
	if err == nil && h.shadow != nil {
		err = h.shadow.Sync(p)
	}
	return err
}

// Close implements Handle, deleting the file when it was opened
// delete-on-close. Closing twice is a no-op.
func (h *stripedHandle) Close(p *sim.Proc) error {
	if h.closed {
		return nil
	}
	d := h.drv
	for i, o := range d.handles {
		if o == h {
			d.handles = append(d.handles[:i], d.handles[i+1:]...)
			break
		}
	}
	if h.shadow != nil {
		h.shadow.Close(p)
		h.shadow = nil
	}
	h.closed = true
	if h.mode&ModeDeleteOnClose != 0 {
		return d.Delete(p, h.name)
	}
	return nil
}

// ---- Batch (segment-list) I/O ----
//
// A batch request needs its fragments packed contiguously in one
// registered window on ONE server. The internal/aggregate planner provides
// exactly that — a per-server gather plan (object segment list, and the
// buffer↔staging copy map) — so a list transfer is one unit per server
// plan, dispatched by the core like every other operation: writes fan
// each window out write-all, reads issue the batch read-any. One rule
// picks each plan's window, at every width. A plan whose copy map is a
// single run of the user buffer already lies in it as the server wants
// it packed, so that run is the window, pinned through the NIC's
// registration cache and moved with no client copy: the one plan of the
// identity layout (width 1), every two-phase aggregator's block (its
// stripe-aligned domain is one server's), any list inside one stripe.
// Only a plan of more than one run stages, and each staged plan pays its
// own copy at the moment its bytes move, not the whole call's up front: a
// write packs the plan into its staging buffer just before the plan's
// first flight issues, while the plans before it are already on the
// wire, and a read scatters a plan back as soon as its flight delivers,
// while the later plans' flights are still in the air.

// planOp is a list transfer in flight: one unit per server gather plan.
// The op owns its plans, their DAFS segment lists and its flights until it
// is waited — a batch request is encoded only when a session credit frees,
// which can be after the issuer has moved on — and Wait then hands it back
// to its driver's free list with that storage, so the next list transfer
// of the same shape plans and issues without allocating.
type planOp struct {
	*stripedHandle
	write   bool
	plans   []aggregate.ServerPlan
	specs   slab[dafs.SegSpec] // per plan: its Segs as the DAFS leaf sends them
	staging [][]byte           // per plan: its staging buffer, kept across reuse; nil for a plan that never staged
	wins    []win              // per plan: the pinned window its request names
	buf     []byte             // the user buffer the plans' copy maps refer to
	fl      []flight
	got     int64 // bytes moved: what the servers delivered, or the plans' total once written
}

// win is a list request's RDMA window: a registration Pin returned and
// where the window starts in it.
type win struct {
	reg *via.Region
	off int
}

// own is the server this client starts a noncontiguous call's fan-out on,
// its node ID modulo the width, before it walks the other servers in
// order, wrapping at the end. Clients are numbered after the servers, so
// at full width client i starts on server i: clients issuing the same
// shape at once each fill a different server's session window first,
// rather than all queueing on server 0 while the rest sit idle.
// Contiguous requests keep stripe order.
func (d *striped) own() int { return int(d.node.ID) % d.striping.Width }

// ownSeg returns the index of the first of segs whose first byte lies on
// the own server, and where its bytes start in the call's buffer; 0, 0
// when none does. A per-segment call issues from there to the end of the
// list and then its head, so each server's segments still go out as one
// run.
func (d *striped) ownSeg(segs []Segment) (int, int) {
	own, pos := d.own(), 0
	for i, s := range segs {
		if d.striping.Server(s.Off) == own {
			return i, pos
		}
		pos += int(s.Len)
	}
	return 0, 0
}

// newPlanOp takes an op from the free list (or makes one) and plans segs
// on it, the plans and their segment lists in the op's own storage, led
// by the plan of the own server (or the next one after it that has
// bytes).
func (d *striped) newPlanOp(h *stripedHandle, segs []Segment, buf []byte, write bool) *planOp {
	var o *planOp
	if n := len(d.freePlans); n > 0 {
		o, d.freePlans = d.freePlans[n-1], d.freePlans[:n-1]
	} else {
		o = new(planOp)
	}
	o.stripedHandle, o.write, o.buf = h, write, buf
	o.plans = aggregate.AppendGather(o.plans[:0], d.striping, segs)
	// Lead with the first plan on or after the own server, the plans
	// before it following the last: a rotation in place by three
	// reversals.
	k, own := 0, d.own()
	for k < len(o.plans) && o.plans[k].Server < own {
		k++
	}
	if k > 0 && k < len(o.plans) {
		slices.Reverse(o.plans[:k])
		slices.Reverse(o.plans[k:])
		slices.Reverse(o.plans)
	}
	n := 0
	for _, pl := range o.plans {
		n += len(pl.Segs)
	}
	o.specs.all = grown(o.specs.all, n)
	o.specs.parts = grown(o.specs.parts, len(o.plans))
	pos := 0
	for i, pl := range o.plans {
		part := o.specs.all[pos : pos+len(pl.Segs)]
		for j, sg := range pl.Segs {
			part[j] = dafs.SegSpec{Off: sg.Off, Len: int(sg.Len)}
		}
		o.specs.parts[i] = part
		pos += len(part)
	}
	return o
}

func (o *planOp) primary(u int) int { return o.plans[u].Server }

func (o *planOp) request(u, t, r int) request {
	rq := request{kind: opReadList, fh: o.fhs[t][r], specs: o.specs.parts[u], reg: o.wins[u].reg, regOff: o.wins[u].off}
	if o.write {
		rq.kind = opWriteList
	}
	return rq
}

func (o *planOp) absorb(u, t, r, v int) {
	if !o.write {
		o.got += int64(v)
	}
}

// staged reports whether plan u moves through a staging buffer: its copy
// map is more than one run of the user buffer.
func (o *planOp) staged(u int) bool { return len(o.plans[u].Copies) > 1 }

// stage moves a staged plan's bytes between the user buffer and its
// staging buffer — a write's pack, shared by the plan's R flights and any
// re-drive, or a read's scatter — as one assembly memcpy charged to the
// client CPU. A single-run plan moves in place and copies nothing.
func (o *planOp) stage(p *sim.Proc, u int) {
	if !o.staged(u) {
		return
	}
	d, pl, staging := o.drv, o.plans[u], o.staging[u]
	span := "scatter"
	if o.write {
		span = "pack"
	}
	id := d.tr.Begin(d.node.Name, trace.LayerAggregate, span, trace.OpID(p.TraceCtx()))
	for _, cp := range pl.Copies {
		user, staged := o.buf[cp.BufOff:cp.BufOff+cp.Len], staging[cp.StageOff:cp.StageOff+cp.Len]
		if o.write {
			copy(staged, user)
		} else {
			copy(user, staged)
		}
	}
	d.node.CopyMem(p, int(pl.Total))
	d.tr.End(id)
}

// window pins plan u's window through the NIC's registration cache. A
// single-run plan's window is that run of the user buffer. A staged
// plan's is its staging buffer, grown to a power of two of at least the
// plan's total and 4 KiB, and never shrunk: an op reused at the same
// shape names the same buffers, so steady-state list I/O pays the pinning
// once either way.
func (o *planOp) window(p *sim.Proc, u int) win {
	pl := o.plans[u]
	var buf []byte
	if !o.staged(u) {
		cp := pl.Copies[0]
		buf = o.buf[cp.BufOff : cp.BufOff+cp.Len]
	} else {
		for len(o.staging) <= u {
			o.staging = append(o.staging, nil)
		}
		if int64(len(o.staging[u])) < pl.Total {
			size := int64(4 << 10)
			for size < pl.Total {
				size <<= 1
			}
			o.staging[u] = make([]byte, size)
		}
		buf = o.staging[u]
	}
	reg, off := o.drv.nic.Pin(p, buf)
	return win{reg, off}
}

// unwindow unpins the op's windows, staging buffers and user-buffer
// runs. Both exits of a list operation — issue-time failure and Wait —
// come through here: a skipped return leaks a pinned window when the
// cache is off (TestListIssueFailureReturnsStaging and
// TestListUnpinsWithoutCache check both paths). The op then goes back to
// the free list, keeping its plan, segment-list, staging and flight
// storage but pinning no handle or session.
func (o *planOp) unwindow(p *sim.Proc) {
	d := o.drv
	for _, w := range o.wins {
		d.nic.Unpin(p, w.reg)
	}
	clear(o.wins)
	clear(o.fl)
	*o = planOp{plans: o.plans, specs: o.specs, staging: o.staging, wins: o.wins[:0], fl: o.fl[:0]}
	d.freePlans = append(d.freePlans, o)
}

// Wait implements AsyncOp. A read's count is the byte sum the servers
// delivered (batch reads zero-fill EOF holes inside the window). A failed
// read counts 0 bytes, and what its buffer holds is undefined, as MPI
// leaves it: the plans delivered before the failure have been scattered
// into it.
func (o *planOp) Wait(p *sim.Proc) (int, error) {
	err := o.drv.finish(p, o, o.fl, o.write)
	got := o.got
	if err == nil && o.write {
		for _, pl := range o.plans {
			got += pl.Total
		}
	}
	o.unwindow(p)
	if err != nil {
		return 0, err
	}
	return int(got), nil
}

// StartList implements Handle: segs, consecutive bytes of buf, move as
// batch I/O, one unit per server plan through begin and finish. A leaf
// without batch I/O refuses it before any request is built. During a
// reshape batched writes mirror onto the new layout like contiguous ones.
func (h *stripedHandle) StartList(p *sim.Proc, segs []Segment, buf []byte, write bool) (AsyncOp, error) {
	if err := h.check(0, write); err != nil {
		return nil, err
	}
	d := h.drv
	switch {
	case d.dafsTransfer == nil:
		return nil, errNoBatch
	case len(buf) == 0:
		return doneOp(0), nil
	}
	o := d.newPlanOp(h, segs, buf, write)

	// The operation owns its windows from here: the issue-failure path
	// below and Wait are the two places they go back. Each staged plan is
	// packed by begin just before it issues.
	for u := range o.plans {
		o.wins = append(o.wins, o.window(p, u))
	}
	var err error
	if o.fl, err = d.begin(p, o, len(o.plans), write, o.fl); err != nil {
		o.unwindow(p)
		return nil, err
	}
	if !write || h.shadow == nil {
		return o, nil
	}
	sop, err := h.shadow.StartList(p, segs, buf, true)
	return mirror(p, o, sop, err)
}
