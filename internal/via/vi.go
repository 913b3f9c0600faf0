package via

import (
	"fmt"

	"dafsio/internal/fabric"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// Descriptor describes one data-transfer operation on a VI work queue.
// Buffers are expressed as (Region, Offset, Len) so the NIC can enforce the
// VIA protection model; RDMA operations additionally name remote memory by
// (RemoteHandle, RemoteOffset) — a token the peer must have communicated
// out of band (in DAFS, inside the request message).
type Descriptor struct {
	Op     Op
	Region *Region
	Offset int
	Len    int

	// RDMA target (OpRDMAWrite: where to put; OpRDMARead: where to fetch).
	RemoteHandle MemHandle
	RemoteOffset int

	// Ctx is an opaque cookie returned in the completion.
	Ctx any

	vi      *VI
	token   uint64
	respDst fabric.NodeID // internal: destination of an RDMA read response
	span    trace.OpID    // descriptor span: post -> completion (0: untraced)
}

// Completion reports the outcome of a descriptor.
type Completion struct {
	VI   *VI
	Desc *Descriptor
	Op   Op
	Len  int // bytes transferred (receives: actual message length)
	Err  error
	At   sim.Time

	// Trace is the sender's descriptor span id for received messages (0
	// when tracing is off): the hook that lets a server parent its
	// execution span to the client operation that sent the request.
	Trace trace.OpID
}

// CQ is a completion queue, consumed in one of VIA's two ways. A queue
// from NewCQ is waited on: a process blocked in Wait is descheduled and
// pays the wakeup latency when a completion arrives. A queue from
// NewNotifyCQ hands every completion to its handler (VipCQNotify) and
// holds no process between completions. InitCQ sets up either kind in
// place, inside the record that owns it.
type CQ struct {
	Name string

	nic  *NIC
	ch   sim.Chan[Completion]
	room [8]Completion // ch's first ring

	// Notify queues only: the handler, whether a drain proc is spawned or
	// running, and the link of the NIC's queue of spawned drains that have
	// not started yet (NIC.drain).
	handler   func(p *sim.Proc, c Completion)
	draining  bool
	drainNext *CQ
}

// NewCQ creates a completion queue on the NIC, for processes that Wait.
func (n *NIC) NewCQ(name string) *CQ {
	cq := new(CQ)
	n.InitCQ(cq, name, nil)
	return cq
}

// NewNotifyCQ creates a completion queue whose completions go to h, the
// way VipCQNotify runs a handler instead of a blocked thread. The first
// completion to reach an idle queue spawns one drain proc: it pays the
// wakeup latency once, then runs h on each queued completion in arrival
// order, and ends, without yielding, when it finds the queue empty. h may
// yield; completions that arrive meanwhile queue behind the one it holds.
// So h sees exactly the completions, instants and charges a daemon looping
// on Wait would, and between bursts the queue parks no process.
func (n *NIC) NewNotifyCQ(name string, h func(p *sim.Proc, c Completion)) *CQ {
	cq := new(CQ)
	n.InitCQ(cq, name, h)
	return cq
}

// InitCQ sets up cq in place as a completion queue on the NIC: a notify
// queue running h (see NewNotifyCQ), or, with h nil, a queue processes
// Wait on (see NewCQ).
func (n *NIC) InitCQ(cq *CQ, name string, h func(p *sim.Proc, c Completion)) {
	*cq = CQ{Name: name, nic: n, handler: h}
	cq.ch.Init(n.prov.K, 0, cq.room[:])
}

// Wait blocks until a completion is available. If the process had to sleep,
// it is charged the wakeup latency on its host CPU. A notify queue has no
// waiters.
func (cq *CQ) Wait(p *sim.Proc) Completion {
	if cq.handler != nil {
		panic("via: Wait on a notify CQ")
	}
	if c, ok := cq.Poll(); ok {
		return c
	}
	c, ok := cq.ch.Recv(p)
	if !ok {
		panic("via: CQ closed")
	}
	cq.nic.queued--
	cq.nic.Node.Compute(p, cq.nic.prov.Prof.WakeupLatency)
	return c
}

// drain is a notify queue's proc: the wakeup, then the handler on every
// queued completion.
func (cq *CQ) drain(p *sim.Proc) {
	c, _ := cq.Poll()
	cq.nic.Node.Compute(p, cq.nic.prov.Prof.WakeupLatency)
	for ok := true; ok; c, ok = cq.Poll() {
		cq.handler(p, c)
	}
	cq.draining = false
}

// Poll returns a completion without blocking.
func (cq *CQ) Poll() (Completion, bool) {
	c, ok := cq.ch.TryRecv()
	if ok {
		cq.nic.queued--
	}
	return c, ok
}

// Len returns the number of undelivered completions.
func (cq *CQ) Len() int { return cq.ch.Len() }

// deliver queues c. On an idle notify queue it spawns the drain, which
// takes the sequence slot a waiter's wake takes.
func (cq *CQ) deliver(c Completion) {
	n := cq.nic
	c.At = n.prov.K.Now()
	if c.Desc != nil {
		// Descriptor spans end when their completion is delivered.
		n.prov.Tracer.End(c.Desc.span)
	}
	if !cq.ch.TrySend(c) {
		panic("via: CQ closed")
	}
	n.queued++
	if cq.handler != nil && !cq.draining {
		cq.draining = true
		if n.drainT == nil {
			n.drainH = cq
		} else {
			n.drainT.drainNext = cq
		}
		n.drainT = cq
		n.prov.K.SpawnDaemon(cq.Name, n.drainFn)
	}
}

// drain starts the drain of the notify queue whose drain was spawned
// first and has not started. Every drain proc of the NIC runs this one
// function value, bound once per NIC rather than once per queue: procs
// spawned at one instant or later start in spawn order, so the proc that
// starts is the one spawned for the queue at the head.
func (n *NIC) drain(p *sim.Proc) {
	cq := n.drainH
	n.drainH, cq.drainNext = cq.drainNext, nil
	if n.drainH == nil {
		n.drainT = nil
	}
	cq.drain(p)
}

// VI is a Virtual Interface: a connected pair of work queues. Send-side
// completions (sends, RDMA writes, RDMA reads) go to SendCQ; matched
// receives go to RecvCQ.
type VI struct {
	ID     int
	NIC    *NIC
	SendCQ *CQ
	RecvCQ *CQ

	peerNode  fabric.NodeID
	peerVI    int
	connected bool
	errState  error

	// recvQ holds the posted receives, oldest first. Taking one shifts the
	// rest down (a queue holds one session's or pair's credits, a handful of
	// pointers), so the backing array is allocated once and reused. It
	// starts in recvRoom, which holds a DAFS session's receives.
	recvQ    []*Descriptor
	recvRoom [8]*Descriptor
}

// NewVI creates an unconnected VI using the given completion queues (which
// may be shared across VIs, as VIA allows).
func (n *NIC) NewVI(sendCQ, recvCQ *CQ) *VI {
	vi := new(VI)
	n.InitVI(vi, sendCQ, recvCQ)
	return vi
}

// InitVI sets up vi in place as an unconnected VI on the NIC (see NewVI),
// for a VI embedded in its owner's record.
func (n *NIC) InitVI(vi *VI, sendCQ, recvCQ *CQ) {
	if sendCQ.nic != n || recvCQ.nic != n {
		panic("via: CQ belongs to a different NIC")
	}
	*vi = VI{ID: len(n.vis), NIC: n, SendCQ: sendCQ, RecvCQ: recvCQ}
	vi.recvQ = vi.recvRoom[:0]
	n.vis = append(n.vis, vi)
}

// Connect pairs two VIs (the simulation's out-of-band connection manager).
// Both must be unconnected.
func Connect(a, b *VI) {
	if a.connected || b.connected {
		panic("via: VI already connected")
	}
	if a.NIC == b.NIC {
		panic("via: loopback VI pairs are not supported")
	}
	a.peerNode, a.peerVI = b.NIC.Node.ID, b.ID
	b.peerNode, b.peerVI = a.NIC.Node.ID, a.ID
	a.connected, b.connected = true, true
}

// Err returns the VI's sticky error state (receive underrun etc.).
func (vi *VI) Err() error { return vi.errState }

// PostRecv posts a receive descriptor. Receives match incoming sends in
// FIFO order; per VIA, descriptors must be posted before the matching
// message arrives or the VI enters the error state.
func (vi *VI) PostRecv(p *sim.Proc, d *Descriptor) error {
	if err := vi.checkDesc(d); err != nil {
		return err
	}
	d.Op = OpRecv
	d.vi = vi
	vi.NIC.Node.Compute(p, vi.NIC.prov.Prof.DoorbellCost)
	vi.recvQ = append(vi.recvQ, d)
	vi.NIC.stats.RecvsPosted++
	return nil
}

// PrepostRecv posts a receive descriptor with no CPU cost, for buffers set
// up at initialization time (library bounce pools posted at startup, before
// any timed activity).
func (vi *VI) PrepostRecv(d *Descriptor) error {
	if err := vi.checkDesc(d); err != nil {
		return err
	}
	d.Op = OpRecv
	d.vi = vi
	vi.recvQ = append(vi.recvQ, d)
	vi.NIC.stats.RecvsPosted++
	return nil
}

// PostSend posts a send-side descriptor (OpSend, OpRDMAWrite or OpRDMARead).
// The calling process pays only the doorbell cost; the NIC performs the
// transfer asynchronously and delivers a completion to SendCQ.
func (vi *VI) PostSend(p *sim.Proc, d *Descriptor) error {
	if !vi.connected {
		return ErrNotConnected
	}
	if vi.errState != nil {
		return ErrVIError
	}
	if err := vi.checkDesc(d); err != nil {
		return err
	}
	switch d.Op {
	case OpSend:
		vi.NIC.stats.SendsPosted++
	case OpRDMAWrite:
		vi.NIC.stats.RDMAWrites++
	case OpRDMARead:
		vi.NIC.stats.RDMAReads++
	default:
		return fmt.Errorf("%w: PostSend with op %v", ErrBadOp, d.Op)
	}
	d.vi = vi
	if tr := vi.NIC.prov.Tracer; tr != nil {
		d.span = tr.Begin(vi.NIC.Node.Name, trace.LayerVIA, d.Op.String(), trace.OpID(p.TraceCtx()))
		t0 := p.Now()
		vi.NIC.Node.Compute(p, vi.NIC.prov.Prof.DoorbellCost)
		tr.Charge(d.span, trace.CatDoorbell, p.Now()-t0)
	} else {
		vi.NIC.Node.Compute(p, vi.NIC.prov.Prof.DoorbellCost)
	}
	vi.NIC.sendWork.Send(p, d)
	return nil
}

func (vi *VI) checkDesc(d *Descriptor) error {
	if d.Region == nil || d.Region.nic != vi.NIC || !d.Region.Valid() {
		return ErrInvalidRegion
	}
	if !d.Region.covers(d.Offset, d.Len) {
		return ErrBounds
	}
	return nil
}

// enterError puts the VI in the sticky error state and fails all posted
// receives.
func (vi *VI) enterError(err error) {
	if vi.errState == nil {
		vi.errState = err
	}
	for _, d := range vi.recvQ {
		vi.RecvCQ.deliver(Completion{VI: vi, Desc: d, Op: OpRecv, Err: err})
	}
	vi.recvQ = nil
}

// takeRecv removes and returns the oldest posted receive.
func (vi *VI) takeRecv() *Descriptor {
	d := vi.recvQ[0]
	n := copy(vi.recvQ, vi.recvQ[1:])
	vi.recvQ[n] = nil
	vi.recvQ = vi.recvQ[:n]
	return d
}
