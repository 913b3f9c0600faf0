package via

import (
	"dafsio/internal/fabric"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// cellKind discriminates the frame types a VIA NIC puts on the wire.
type cellKind uint8

const (
	ckSend      cellKind = iota // two-sided send data
	ckRDMAWrite                 // one-sided write data
	ckReadReq                   // RDMA read request (control only)
	ckReadResp                  // RDMA read response data
	ckAck                       // delivery acknowledgement (reliable mode)
)

// String names the cell kind (wire span labels).
func (k cellKind) String() string {
	switch k {
	case ckSend:
		return "send"
	case ckRDMAWrite:
		return "rdma-write"
	case ckReadReq:
		return "read-req"
	case ckReadResp:
		return "read-resp"
	case ckAck:
		return "ack"
	default:
		return "cell?"
	}
}

// cell is the NIC's wire unit. Large messages are segmented into cells of
// at most Profile.CellSize (including CellHeader) so DMA and link stages
// pipeline within a message.
//
// Cells are recycled through the provider (newCell / freeCell) together
// with their payload buffer. A cell has one owner at a time: the sending
// NIC until the frame is on the link, then the receiving NIC, which copies
// the payload out and frees the cell when its handler returns. Whoever
// discards a cell instead (dead NIC, injected drop) frees it; a cell lost
// any other way is simply garbage.
type cell struct {
	kind  cellKind
	src   fabric.NodeID
	dst   fabric.NodeID
	dstVI int

	msgID uint64
	off   int
	n     int
	total int
	last  bool
	dup   bool // injected duplicate: occupies the wire, receiver discards
	data  []byte

	// RDMA addressing.
	rhandle MemHandle
	raddr   int
	rlen    int
	token   uint64

	errCode uint8

	// Trace correlation (zero when tracing is off). These ride in the
	// simulated payload struct, not the modeled wire format: timing
	// depends only on Frame.Bytes, so they are free and invisible to the
	// cost model.
	span trace.OpID // originating descriptor's span
	wire trace.OpID // this message's wire span (ended by the receiver)
}

// newCell returns a cell set to c. Its data is an empty slice over the
// payload buffer the cell was last freed with (nil for a new cell), for
// streamOut to fill.
func (pr *Provider) newCell(c cell) *cell {
	var p *cell
	if n := len(pr.freeCells); n > 0 {
		p = pr.freeCells[n-1]
		pr.freeCells = pr.freeCells[:n-1]
	} else {
		p = new(cell)
	}
	c.data = p.data[:0]
	*p = c
	return p
}

// freeCell hands a cell nobody references any more back for reuse.
func (pr *Provider) freeCell(c *cell) { pr.freeCells = append(pr.freeCells, c) }

// Wire error codes carried in acks and read responses.
const (
	ecOK uint8 = iota
	ecProtection
	ecUnderrun
	ecTooSmall
	ecInvalidVI
)

func codeOf(err error) uint8 {
	switch err {
	case nil:
		return ecOK
	case ErrRecvUnderrun:
		return ecUnderrun
	case ErrRecvTooSmall:
		return ecTooSmall
	case ErrNotConnected:
		return ecInvalidVI
	default:
		return ecProtection
	}
}

func errOf(code uint8) error {
	switch code {
	case ecOK:
		return nil
	case ecUnderrun:
		return ErrRecvUnderrun
	case ecTooSmall:
		return ErrRecvTooSmall
	case ecInvalidVI:
		return ErrNotConnected
	default:
		return ErrProtection
	}
}

// sendLoop is the NIC's descriptor-processing engine: it pops posted send
// descriptors in doorbell order and drives the host-to-NIC DMA stage.
func (n *NIC) sendLoop(p *sim.Proc) {
	prof := n.prov.Prof
	for {
		d, ok := n.sendWork.Recv(p)
		if !ok {
			return
		}
		tr := n.prov.Tracer
		p.Wait(prof.DescProcess)
		tr.Charge(d.span, trace.CatNIC, prof.DescProcess)
		switch d.Op {
		case OpSend:
			n.streamOut(p, d, ckSend, d.vi.peerNode, d.vi.peerVI, true)
		case OpRDMAWrite:
			n.streamOut(p, d, ckRDMAWrite, d.vi.peerNode, d.vi.peerVI, true)
		case opReadResp:
			n.streamOut(p, d, ckReadResp, d.respDst, 0, false)
			n.freeReadResps = append(n.freeReadResps, d) // its cells hold all it said
		case OpRDMARead:
			n.readSeq++
			d.token = n.readSeq
			n.pendReads[d.token] = d
			n.txQ.Send(p, n.prov.newCell(cell{
				kind: ckReadReq, dst: d.vi.peerNode, dstVI: d.vi.peerVI,
				token: d.token, rhandle: d.RemoteHandle, raddr: d.RemoteOffset, rlen: d.Len,
				span: d.span,
				wire: tr.Begin(n.Node.Name, trace.LayerWire, "read-req", d.span),
			}))
		default:
			panic("via: bad op on send queue")
		}
	}
}

// streamOut segments a descriptor's buffer into cells, paying the DMA cost
// per cell and handing cells to the transmit stage. When tracked is true
// the descriptor completes later, on the delivery ack.
func (n *NIC) streamOut(p *sim.Proc, d *Descriptor, kind cellKind, dst fabric.NodeID, dstVI int, tracked bool) {
	prof := n.prov.Prof
	if !d.Region.Valid() {
		if tracked {
			d.vi.SendCQ.deliver(p, Completion{VI: d.vi, Desc: d, Op: d.Op, Err: ErrInvalidRegion})
		}
		return
	}
	n.msgSeq++
	msgID := n.msgSeq
	if tracked {
		n.pendSends[msgID] = d
	}
	tr := n.prov.Tracer
	// One wire span per message: first-cell handoff to the transmit stage
	// until the receiver takes the last cell off its link.
	wire := tr.Begin(n.Node.Name, trace.LayerWire, kind.String(), d.span)
	cellData := prof.CellSize - prof.CellHeader
	total := d.Len
	off := 0
	for {
		nb := min(cellData, total-off)
		t0 := p.Now()
		n.txDMA.Acquire(p, 1)
		dmaService := prof.DMASetup + sim.TransferTime(int64(nb), prof.DMABandwidth)
		p.Wait(dmaService)
		n.txDMA.Release(1)
		if tr != nil {
			// The DMA engine's service time is NIC work; any excess of
			// the measured elapsed is arbitration against other messages.
			tr.Charge(d.span, trace.CatNIC, dmaService)
			tr.Charge(d.span, trace.CatQueue, p.Now()-t0-dmaService)
		}
		last := off+nb >= total
		c := n.prov.newCell(cell{
			kind: kind, dst: dst, dstVI: dstVI,
			msgID: msgID, off: off, n: nb, total: total, last: last,
			span: d.span, wire: wire,
		})
		// The payload is snapshotted now, at DMA time: later writes to the
		// region do not reach a cell already on its way.
		if cap(c.data) < nb {
			c.data = make([]byte, cellData)
		}
		c.data = c.data[:nb]
		copy(c.data, d.Region.at(d.Offset+off, nb))
		switch kind {
		case ckRDMAWrite:
			c.rhandle, c.raddr = d.RemoteHandle, d.RemoteOffset
		case ckReadResp:
			c.token = d.token
		}
		n.stats.CellsOut++
		n.stats.BytesOut += int64(nb)
		n.txQ.Send(p, c)
		off += nb
		if last {
			return
		}
	}
}

// txLoop serializes cells onto the node's transmit link.
func (n *NIC) txLoop(p *sim.Proc) {
	tr := n.prov.Tracer
	for {
		c, ok := n.txQ.Recv(p)
		if !ok {
			return
		}
		if n.dead {
			n.prov.freeCell(c)
			continue
		}
		// Fault hooks: only data-bearing kinds are eligible. Acks are never
		// stalled, dropped, or duplicated — ack loss would strand the
		// sender's buffer-pool slot outside the session timeout's coverage,
		// and the model wants loss surfaced at message grain, as a
		// reliability-level connection break.
		if fi := n.prov.Faults; fi != nil && c.kind != ckAck {
			if until := fi.StallUntil(n.Node.Name, p.Now()); until > p.Now() {
				p.Wait(until - p.Now())
			}
			drop, dup := fi.TxVerdict(n.Node.Name, p.Now())
			if drop {
				if tr != nil && (c.last || c.kind == ckReadReq) {
					// The receiver would have ended the message's wire span
					// on this cell; close it here so the trace stays sound.
					tr.End(c.wire)
				}
				n.prov.freeCell(c)
				continue
			}
			if dup {
				// The duplicate is a cell of its own, because the receiver
				// frees every cell it takes off the link. It carries no
				// payload: it only occupies the wire, which c.n sizes.
				d := n.prov.newCell(*c)
				d.dup = true
				n.txCell(p, c)
				c = d
			}
		}
		n.txCell(p, c)
	}
}

// txCell puts one cell on the node's transmit link.
func (n *NIC) txCell(p *sim.Proc, c *cell) {
	prof := n.prov.Prof
	tr := n.prov.Tracer
	if tr == nil {
		n.Node.Send(p, fabric.Frame{Dst: c.dst, Bytes: c.n + prof.CellHeader, Payload: c})
		return
	}
	ser := sim.TransferTime(int64(c.n+prof.CellHeader), prof.LinkBandwidth)
	t0 := p.Now()
	n.Node.Send(p, fabric.Frame{Dst: c.dst, Bytes: c.n + prof.CellHeader, Payload: c})
	// Serialization is wire time; the excess is waiting for the
	// shared transmit link (other VIs, the kernel stack).
	tr.Charge(c.span, trace.CatWire, ser)
	tr.Charge(c.span, trace.CatQueue, p.Now()-t0-ser)
}

// recvLoop drains the NIC's receive queue and dispatches cells.
func (n *NIC) recvLoop(p *sim.Proc) {
	for {
		fr, ok := n.iface.Recv(p)
		if !ok {
			return
		}
		c := fr.Payload.(*cell)
		c.src = fr.Src
		if n.dead || c.dup {
			// Dead NICs hear nothing; injected duplicates have already paid
			// their wire occupancy and the reliable layer discards them
			// before any processing (or trace attribution).
			n.prov.freeCell(c)
			continue
		}
		if tr := n.prov.Tracer; tr != nil {
			if c.off == 0 {
				// Propagation delay, once per message at its head.
				tr.Charge(c.span, trace.CatWire, n.prov.Prof.WireLatency)
			}
			// Receive-side link serialization (paid in iface.Recv just
			// above; it pipelines against the sender's next cell).
			tr.Charge(c.span, trace.CatWire,
				sim.TransferTime(int64(c.n+n.prov.Prof.CellHeader), n.prov.Prof.LinkBandwidth))
			if c.last || c.kind == ckReadReq || c.kind == ckAck {
				// Control cells are single-cell messages that never set
				// last; either way the message is now off the wire.
				tr.End(c.wire)
			}
		}
		switch c.kind {
		case ckSend:
			n.handleSend(p, c)
		case ckRDMAWrite:
			n.handleRDMAWrite(p, c)
		case ckReadReq:
			n.handleReadReq(p, c)
		case ckReadResp:
			n.handleReadResp(p, c)
		case ckAck:
			n.handleAck(p, c)
		}
		n.prov.freeCell(c) // every handler has copied out what it keeps
	}
}

// dmaIn charges the NIC-to-host DMA stage for nb payload bytes, attributing
// the service time (and any engine arbitration) to span.
func (n *NIC) dmaIn(p *sim.Proc, nb int, span trace.OpID) {
	prof := n.prov.Prof
	t0 := p.Now()
	n.rxDMA.Acquire(p, 1)
	service := prof.DMASetup + sim.TransferTime(int64(nb), prof.DMABandwidth)
	p.Wait(service)
	n.rxDMA.Release(1)
	if tr := n.prov.Tracer; tr != nil {
		tr.Charge(span, trace.CatNIC, service)
		tr.Charge(span, trace.CatQueue, p.Now()-t0-service)
	}
}

// newReasm starts the reassembly of message key with a state an earlier
// message gave back, when there is one.
func (n *NIC) newReasm(key reasmKey) *reasmState {
	var st *reasmState
	if k := len(n.freeReasms); k > 0 {
		st = n.freeReasms[k-1]
		n.freeReasms = n.freeReasms[:k-1]
	} else {
		st = new(reasmState)
	}
	n.reasm[key] = st
	return st
}

// freeReasm ends the reassembly of message key once its last cell is in:
// the state is cleared and kept for the next message, so the caller copies
// out what it still needs first.
func (n *NIC) freeReasm(key reasmKey, st *reasmState) {
	delete(n.reasm, key)
	*st = reasmState{}
	n.freeReasms = append(n.freeReasms, st)
}

// newReadResp returns an internal descriptor for streaming an RDMA read's
// response, one that served an earlier read when there is one. sendLoop
// gives it back once the response's cells are out.
func (n *NIC) newReadResp() *Descriptor {
	if k := len(n.freeReadResps); k > 0 {
		d := n.freeReadResps[k-1]
		n.freeReadResps = n.freeReadResps[:k-1]
		return d
	}
	return new(Descriptor)
}

func (n *NIC) handleSend(p *sim.Proc, c *cell) {
	key := reasmKey{c.src, c.msgID}
	st := n.reasm[key]
	if st == nil {
		st = n.newReasm(key)
		if c.dstVI < 0 || c.dstVI >= len(n.vis) {
			st.err = ErrNotConnected
		} else {
			vi := n.vis[c.dstVI]
			st.vi = vi
			switch {
			case vi.errState != nil:
				st.err = ErrVIError
			case len(vi.recvQ) == 0:
				vi.enterError(p, ErrRecvUnderrun)
				st.err = ErrRecvUnderrun
			default:
				d := vi.takeRecv()
				st.desc = d
				if d.Len < c.total {
					st.err = ErrRecvTooSmall
				}
			}
		}
	}
	if st.desc != nil && st.err == nil && c.n > 0 {
		n.dmaIn(p, c.n, c.span)
		copy(st.desc.buf()[c.off:], c.data)
		n.stats.CellsIn++
		n.stats.BytesIn += int64(c.n)
	}
	st.got += c.n
	if !c.last {
		return
	}
	got, desc, vi, err := st.got, st.desc, st.vi, st.err
	n.freeReasm(key, st)
	if got < c.total {
		// An injected drop lost part of the message. Deliver nothing and
		// send no ack: the sender's session surfaces the loss as a timeout,
		// the model's reliability-level connection break.
		return
	}
	tr := n.prov.Tracer
	if desc != nil {
		p.Wait(n.prov.Prof.CompletionCost)
		tr.Charge(c.span, trace.CatNIC, n.prov.Prof.CompletionCost)
		vi.RecvCQ.deliver(p, Completion{VI: vi, Desc: desc, Op: OpRecv, Len: c.total, Err: err, Trace: c.span})
	}
	n.txQ.Send(p, n.prov.newCell(cell{
		kind: ckAck, dst: c.src, msgID: c.msgID, errCode: codeOf(err),
		span: c.span, wire: tr.Begin(n.Node.Name, trace.LayerWire, "ack", c.span),
	}))
}

func (n *NIC) handleRDMAWrite(p *sim.Proc, c *cell) {
	key := reasmKey{c.src, c.msgID}
	st := n.reasm[key]
	if st == nil {
		st = n.newReasm(key)
		if r := n.lookup(c.rhandle, c.raddr, c.total); r != nil {
			st.region = r
		} else {
			st.err = ErrProtection
		}
	}
	if st.region != nil && st.err == nil && c.n > 0 {
		n.dmaIn(p, c.n, c.span)
		copy(st.region.at(c.raddr+c.off, c.n), c.data)
		n.stats.CellsIn++
		n.stats.BytesIn += int64(c.n)
	}
	st.got += c.n
	if !c.last {
		return
	}
	got, err := st.got, st.err
	n.freeReasm(key, st)
	if got < c.total {
		return // lost message (see handleSend): no ack, sender times out
	}
	n.txQ.Send(p, n.prov.newCell(cell{
		kind: ckAck, dst: c.src, msgID: c.msgID, errCode: codeOf(err),
		span: c.span, wire: n.prov.Tracer.Begin(n.Node.Name, trace.LayerWire, "ack", c.span),
	}))
}

func (n *NIC) handleAck(p *sim.Proc, c *cell) {
	d, ok := n.pendSends[c.msgID]
	if !ok {
		return
	}
	delete(n.pendSends, c.msgID)
	p.Wait(n.prov.Prof.CompletionCost)
	n.prov.Tracer.Charge(d.span, trace.CatNIC, n.prov.Prof.CompletionCost)
	d.vi.SendCQ.deliver(p, Completion{VI: d.vi, Desc: d, Op: d.Op, Len: d.Len, Err: errOf(c.errCode)})
}

func (n *NIC) handleReadReq(p *sim.Proc, c *cell) {
	r := n.lookup(c.rhandle, c.raddr, c.rlen)
	if r == nil {
		n.txQ.Send(p, n.prov.newCell(cell{
			kind: ckReadResp, dst: c.src, token: c.token,
			total: 0, last: true, errCode: ecProtection,
			span: c.span, wire: n.prov.Tracer.Begin(n.Node.Name, trace.LayerWire, "read-resp", c.span),
		}))
		return
	}
	// The NIC serves the read autonomously: queue an internal descriptor
	// that streams the requested range back. No host CPU is involved on
	// this side — the essence of one-sided RDMA. The internal descriptor
	// inherits the requester's span, so the response's DMA and wire time
	// land on the rdma-read descriptor that asked for it.
	d := n.newReadResp()
	*d = Descriptor{
		Op: opReadResp, Region: r, Offset: c.raddr, Len: c.rlen,
		token: c.token, respDst: c.src, span: c.span,
	}
	n.sendWork.TrySend(d)
}

func (n *NIC) handleReadResp(p *sim.Proc, c *cell) {
	d, ok := n.pendReads[c.token]
	if !ok {
		return
	}
	if c.errCode != ecOK {
		delete(n.pendReads, c.token)
		p.Wait(n.prov.Prof.CompletionCost)
		d.vi.SendCQ.deliver(p, Completion{VI: d.vi, Desc: d, Op: OpRDMARead, Err: errOf(c.errCode)})
		return
	}
	if c.n > 0 {
		n.dmaIn(p, c.n, c.span)
		copy(d.buf()[c.off:], c.data)
		n.stats.CellsIn++
		n.stats.BytesIn += int64(c.n)
	}
	n.respGot[c.token] += c.n
	if !c.last {
		return
	}
	delete(n.pendReads, c.token)
	got := n.respGot[c.token]
	delete(n.respGot, c.token)
	if got < c.total {
		return // lost response (see handleSend): no completion, caller times out
	}
	p.Wait(n.prov.Prof.CompletionCost)
	n.prov.Tracer.Charge(d.span, trace.CatNIC, n.prov.Prof.CompletionCost)
	d.vi.SendCQ.deliver(p, Completion{VI: d.vi, Desc: d, Op: OpRDMARead, Len: d.Len, Err: nil})
}
