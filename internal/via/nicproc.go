package via

import (
	"dafsio/internal/fabric"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// The NIC's engines: send (descriptor processing and host-to-NIC DMA), tx
// (the transmit link) and rx (the receive link, NIC-to-host DMA and
// delivery). Each is a sim engine, a step function on the NIC with no
// goroutine, as VIA's hardware has no host thread. Each step runs until
// the engine must wait, arranges the one wake that ends the wait, records
// where it stopped in its phase field, and returns:
//
//   - send: poll sendWork → DescProcess → per cell: claim txDMA → DMA
//     service → offer the cell to txQ (capacity 2, so this waits for tx)
//     → next cell or next descriptor. An RDMA read offers one request
//     cell instead of streaming.
//   - tx: poll txQ → a fault stall, if any → claim the node's tx link →
//     serialization → Transmit, then the injected duplicate, if any.
//   - rx: poll the iface → claim the node's rx link → serialization →
//     per kind, start the cell (reassembly, lookups) → claim rxDMA → DMA
//     service → finish it (copy-in, reassembly accounting) →
//     CompletionCost and the completion, if any → offer the ack or read
//     response, if any, to txQ.
//
// Each engine makes the same primitive calls in the same order that a
// proc looping over the blocking forms (Recv, Use, Send) would make, so
// every event keeps its (Time, seq).

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
// Cells are recycled through the provider (newCell / freeCell). A data
// cell's payload is a pool buffer of its class, taken when the cell is
// built and cleared and given back when it is freed; acks, read requests
// and injected duplicates carry none. A cell has one owner at a time: the
// sending NIC until the frame is on the link, then the receiving NIC,
// which copies the payload out and frees the cell when its handler
// returns. Whoever discards a cell instead (dead NIC, injected drop) frees
// it; a cell lost any other way is simply garbage.
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

// newCell returns a cell set to c, without payload: streamCell gives a
// data cell its own.
func (pr *Provider) newCell(c cell) *cell {
	var p *cell
	if n := len(pr.freeCells); n > 0 {
		p = pr.freeCells[n-1]
		pr.freeCells = pr.freeCells[:n-1]
	} else {
		p = new(cell)
	}
	c.data = nil
	*p = c
	return p
}

// freeCell hands a cell nobody references any more back for reuse, and
// its payload, cleared, back to the pool.
func (pr *Provider) freeCell(c *cell) {
	if c.data != nil {
		clear(c.data)
		pr.pool.cells -= cap(c.data)
		pr.pool.put(c.data)
		c.data = nil
	}
	pr.freeCells = append(pr.freeCells, c)
}

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

// Engine phases: where each engine's next step resumes.
const (
	sendIdle    uint8 = iota // polling sendWork
	sendDesc                 // DescProcess elapsing
	sendCell                 // next cell: claiming txDMA
	sendDMA                  // holding txDMA: start the service time
	sendDMADone              // DMA service elapsed
	sendOffer                // offering e.out to txQ
)

const (
	txIdle   uint8 = iota // polling txQ
	txStall               // a fault stall window elapsing
	txClaim               // claiming the tx link
	txHeld                // holding the tx link: start serialization
	txSerial              // serialization elapsed
)

const (
	rxIdle       uint8 = iota // polling the iface
	rxHeld                    // holding the rx link: start serialization
	rxTail                    // the frame's tail is in
	rxDMA                     // claiming rxDMA
	rxDMAHeld                 // holding rxDMA: start the service time
	rxDMADone                 // DMA service elapsed
	rxFinish                  // the cell's DMA, if any, is done
	rxCompletion              // CompletionCost elapsed
	rxReply                   // offering e.out to txQ
)

// sendEngine is the send engine's state between steps.
type sendEngine struct {
	phase   uint8
	d       *Descriptor
	kind    cellKind
	dst     fabric.NodeID
	dstVI   int
	msgID   uint64
	wire    trace.OpID
	off, nb int
	last    bool     // the cell in hand ends the descriptor
	t0      sim.Time // when the cell's DMA claim began
	out     *cell    // the cell waiting for room in txQ
}

// txEngine is the tx engine's state between steps.
type txEngine struct {
	phase uint8
	c     *cell    // the cell in hand
	dup   *cell    // its injected duplicate, sent next
	t0    sim.Time // when the link claim began
}

// rxEngine is the rx engine's state between steps.
type rxEngine struct {
	phase uint8
	fr    fabric.Frame
	c     *cell
	st    *reasmState // send / RDMA write: the message's reassembly
	d     *Descriptor // RDMA read response: the read c carries data for
	dma   bool        // c's payload goes to host memory
	t0    sim.Time    // when the DMA claim began

	cq     *CQ // the queue comp goes to after CompletionCost (nil: none)
	comp   Completion
	charge trace.OpID // span CompletionCost is charged to (0: none)

	ack     bool // acknowledge c's message with ackCode after any completion
	ackCode uint8
	out     *cell // the reply waiting for room in txQ
}

// sendStep is the send engine: it pops posted send descriptors in
// doorbell order and drives the host-to-NIC DMA stage.
func (n *NIC) sendStep(p *sim.Proc) {
	e := &n.snd
	prof := n.prov.Prof
	tr := n.prov.Tracer
	for {
		switch e.phase {
		case sendIdle:
			d, ok := n.sendWork.Poll(p)
			if !ok {
				return
			}
			e.d = d
			e.phase = sendDesc
			p.Sleep(prof.DescProcess)
			return
		case sendDesc:
			d := e.d
			tr.Charge(d.span, trace.CatNIC, prof.DescProcess)
			switch d.Op {
			case OpSend:
				n.startStream(d, ckSend, d.vi.peerNode, d.vi.peerVI, true)
			case OpRDMAWrite:
				n.startStream(d, ckRDMAWrite, d.vi.peerNode, d.vi.peerVI, true)
			case opReadResp:
				n.startStream(d, ckReadResp, d.respDst, 0, false)
			case OpRDMARead:
				n.readSeq++
				d.token = n.readSeq
				n.pendReads[d.token] = d
				e.out = n.prov.newCell(cell{
					kind: ckReadReq, dst: d.vi.peerNode, dstVI: d.vi.peerVI,
					token: d.token, rhandle: d.RemoteHandle, raddr: d.RemoteOffset, rlen: d.Len,
					span: d.span,
					wire: tr.Begin(n.Node.Name, trace.LayerWire, "read-req", d.span),
				})
				e.last = true
				e.phase = sendOffer
			default:
				panic("via: bad op on send queue")
			}
		case sendCell:
			e.nb = min(prof.CellSize-prof.CellHeader, e.d.Len-e.off)
			e.t0 = p.Now()
			e.phase = sendDMA
			if !n.txDMA.Claim(p, 1) {
				return
			}
			fallthrough
		case sendDMA:
			e.phase = sendDMADone
			p.Sleep(n.dmaTime(e.nb))
			return
		case sendDMADone:
			n.txDMA.Release(1)
			n.streamCell(p.Now())
			e.phase = sendOffer
		case sendOffer:
			if !n.txQ.Offer(p, e.out) {
				return
			}
			e.out = nil
			if !e.last {
				e.off += e.nb
				e.phase = sendCell
				continue
			}
			n.endDesc()
		}
	}
}

// startStream begins segmenting a descriptor's buffer into cells. When
// tracked is true the descriptor completes later, on the delivery ack. A
// descriptor whose region went invalid since it was posted streams
// nothing.
func (n *NIC) startStream(d *Descriptor, kind cellKind, dst fabric.NodeID, dstVI int, tracked bool) {
	e := &n.snd
	if !d.Region.Valid() {
		if tracked {
			d.vi.SendCQ.deliver(Completion{VI: d.vi, Desc: d, Op: d.Op, Err: ErrInvalidRegion})
		}
		n.endDesc()
		return
	}
	n.msgSeq++
	if tracked {
		n.pendSends[n.msgSeq] = d
	}
	// One wire span per message: first-cell handoff to the transmit stage
	// until the receiver takes the last cell off its link.
	*e = sendEngine{
		phase: sendCell, d: d, kind: kind, dst: dst, dstVI: dstVI, msgID: n.msgSeq,
		wire: n.prov.Tracer.Begin(n.Node.Name, trace.LayerWire, kind.String(), d.span),
	}
}

// endDesc ends the send engine's descriptor in hand. The internal
// descriptor of an RDMA read response goes back for reuse: its cells hold
// all it said.
func (n *NIC) endDesc() {
	e := &n.snd
	if e.d.Op == opReadResp {
		n.freeReadResps = append(n.freeReadResps, e.d)
	}
	e.d = nil
	e.phase = sendIdle
}

// streamCell builds the cell whose DMA just ended at now, for the send
// engine to offer to txQ.
func (n *NIC) streamCell(now sim.Time) {
	e := &n.snd
	d, nb := e.d, e.nb
	if tr := n.prov.Tracer; tr != nil {
		// The DMA engine's service time is NIC work; any excess of the
		// measured elapsed is arbitration against other messages.
		service := n.dmaTime(nb)
		tr.Charge(d.span, trace.CatNIC, service)
		tr.Charge(d.span, trace.CatQueue, now-e.t0-service)
	}
	e.last = e.off+nb >= d.Len
	c := n.prov.newCell(cell{
		kind: e.kind, dst: e.dst, dstVI: e.dstVI,
		msgID: e.msgID, off: e.off, n: nb, total: d.Len, last: e.last,
		span: d.span, wire: e.wire,
	})
	// The payload is snapshotted now, at DMA time: later writes to the
	// region do not reach a cell already on its way.
	if nb > 0 {
		pool := &n.prov.pool
		c.data = pool.take(nb, n.prov.Prof.CellSize-n.prov.Prof.CellHeader)[:nb]
		pool.cells += cap(c.data)
		copy(c.data, d.Region.at(d.Offset+e.off, nb))
	}
	switch e.kind {
	case ckRDMAWrite:
		c.rhandle, c.raddr = d.RemoteHandle, d.RemoteOffset
	case ckReadResp:
		c.token = d.token
	}
	n.stats.CellsOut++
	n.stats.BytesOut += int64(nb)
	e.out = c
}

// txStep is the tx engine: it serializes cells onto the node's transmit
// link.
func (n *NIC) txStep(p *sim.Proc) {
	e := &n.tx
	for {
		switch e.phase {
		case txIdle:
			c, ok := n.txQ.Poll(p)
			if !ok {
				return
			}
			if n.dead {
				n.prov.freeCell(c)
				continue
			}
			e.c = c
			e.phase = txClaim
			// Fault hooks: only data-bearing kinds are eligible. Acks are
			// never stalled, dropped, or duplicated — ack loss would strand
			// the sender's buffer-pool slot outside the session timeout's
			// coverage, and the model wants loss surfaced at message grain,
			// as a reliability-level connection break.
			if fi := n.prov.Faults; fi != nil && c.kind != ckAck {
				if until := fi.StallUntil(n.Node.Name, p.Now()); until > p.Now() {
					e.phase = txStall
					p.Sleep(until - p.Now())
					return
				}
				n.txVerdict(p.Now())
			}
		case txStall:
			e.phase = txClaim
			n.txVerdict(p.Now())
		case txClaim:
			e.t0 = p.Now()
			e.phase = txHeld
			if !n.Node.ClaimTx(p) {
				return
			}
			fallthrough
		case txHeld:
			e.phase = txSerial
			p.Sleep(n.Node.LinkTime(e.c.n + n.prov.Prof.CellHeader))
			return
		case txSerial:
			c := e.c
			bytes := c.n + n.prov.Prof.CellHeader
			n.Node.Transmit(fabric.Frame{Dst: c.dst, Bytes: bytes, Payload: c})
			if tr := n.prov.Tracer; tr != nil {
				// Serialization is wire time; the excess is waiting for the
				// shared transmit link (other VIs, the kernel stack).
				ser := n.Node.LinkTime(bytes)
				tr.Charge(c.span, trace.CatWire, ser)
				tr.Charge(c.span, trace.CatQueue, p.Now()-e.t0-ser)
			}
			e.c, e.dup = e.dup, nil
			e.phase = txClaim
			if e.c == nil {
				e.phase = txIdle
			}
		}
	}
}

// txVerdict applies the fault plan's drop or duplicate verdict to the cell
// in hand: a dropped cell is freed and the engine goes back to polling; a
// duplicate is queued to follow the original onto the link.
func (n *NIC) txVerdict(now sim.Time) {
	e := &n.tx
	c := e.c
	drop, dup := n.prov.Faults.TxVerdict(n.Node.Name, now)
	if drop {
		if tr := n.prov.Tracer; tr != nil && (c.last || c.kind == ckReadReq) {
			// The receiver would have ended the message's wire span on
			// this cell; close it here so the trace stays sound.
			tr.End(c.wire)
		}
		n.prov.freeCell(c)
		e.c = nil
		e.phase = txIdle
		return
	}
	if dup {
		// The duplicate is a cell of its own, because the receiver frees
		// every cell it takes off the link. It carries no payload: it only
		// occupies the wire, which c.n sizes.
		d := n.prov.newCell(*c)
		d.dup = true
		e.dup = d
	}
}

// recvStep is the rx engine: it drains the NIC's receive queue and
// dispatches cells.
func (n *NIC) recvStep(p *sim.Proc) {
	e := &n.rx
	prof := n.prov.Prof
	for {
		switch e.phase {
		case rxIdle:
			fr, ok := n.iface.Poll(p)
			if !ok {
				return
			}
			e.fr = fr
			e.phase = rxHeld
			if !n.iface.ClaimRx(p) {
				return
			}
			fallthrough
		case rxHeld:
			e.phase = rxTail
			p.Sleep(n.Node.LinkTime(e.fr.Bytes))
			return
		case rxTail:
			n.iface.Received()
			c := e.fr.Payload.(*cell)
			c.src = e.fr.Src
			e.fr = fabric.Frame{}
			if n.dead || c.dup {
				// Dead NICs hear nothing; injected duplicates have already
				// paid their wire occupancy and the reliable layer discards
				// them before any processing (or trace attribution).
				n.prov.freeCell(c)
				e.phase = rxIdle
				continue
			}
			n.traceArrival(c)
			e.c = c
			e.dma = n.rxStart(c)
			e.phase = rxFinish
			if e.dma {
				e.phase = rxDMA
			}
		case rxDMA:
			e.t0 = p.Now()
			e.phase = rxDMAHeld
			if !n.rxDMA.Claim(p, 1) {
				return
			}
			fallthrough
		case rxDMAHeld:
			e.phase = rxDMADone
			p.Sleep(n.dmaTime(e.c.n))
			return
		case rxDMADone:
			n.rxDMA.Release(1)
			if tr := n.prov.Tracer; tr != nil {
				service := n.dmaTime(e.c.n)
				tr.Charge(e.c.span, trace.CatNIC, service)
				tr.Charge(e.c.span, trace.CatQueue, p.Now()-e.t0-service)
			}
			e.phase = rxFinish
		case rxFinish:
			n.rxFinish()
			if e.cq != nil {
				e.phase = rxCompletion
				p.Sleep(prof.CompletionCost)
				return
			}
			n.rxAck()
			e.phase = rxReply
		case rxCompletion:
			n.prov.Tracer.Charge(e.charge, trace.CatNIC, prof.CompletionCost)
			e.cq.deliver(e.comp)
			e.cq, e.comp, e.charge = nil, Completion{}, 0
			n.rxAck()
			e.phase = rxReply
		case rxReply:
			if e.out != nil && !n.txQ.Offer(p, e.out) {
				return
			}
			n.prov.freeCell(e.c) // every handler has copied out what it keeps
			*e = rxEngine{}
		}
	}
}

// dmaTime is the DMA engines' service time for nb payload bytes.
func (n *NIC) dmaTime(nb int) sim.Time {
	prof := n.prov.Prof
	return prof.DMASetup + sim.TransferTime(int64(nb), prof.DMABandwidth)
}

// traceArrival attributes a cell's wire time once it is off the link.
func (n *NIC) traceArrival(c *cell) {
	tr := n.prov.Tracer
	if tr == nil {
		return
	}
	if c.off == 0 {
		// Propagation delay, once per message at its head.
		tr.Charge(c.span, trace.CatWire, n.prov.Prof.WireLatency)
	}
	// Receive-side link serialization (paid on the rx link just before;
	// it pipelines against the sender's next cell).
	tr.Charge(c.span, trace.CatWire, n.Node.LinkTime(c.n+n.prov.Prof.CellHeader))
	if c.last || c.kind == ckReadReq || c.kind == ckAck {
		// Control cells are single-cell messages that never set last;
		// either way the message is now off the wire.
		tr.End(c.wire)
	}
}

// rxStart is the first half of a received cell's handling, up to its DMA
// into host memory: reassembly and lookups, and for control cells all of
// it. It reports whether the cell's payload goes to host memory.
func (n *NIC) rxStart(c *cell) (dma bool) {
	e := &n.rx
	switch c.kind {
	case ckSend:
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
					vi.enterError(ErrRecvUnderrun)
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
		e.st = st
		return st.desc != nil && st.err == nil && c.n > 0
	case ckRDMAWrite:
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
		e.st = st
		return st.region != nil && st.err == nil && c.n > 0
	case ckReadReq:
		n.serveRead(c)
	case ckReadResp:
		d, ok := n.pendReads[c.token]
		if !ok {
			return false
		}
		if c.errCode != ecOK {
			delete(n.pendReads, c.token)
			e.cq, e.comp = d.vi.SendCQ, Completion{VI: d.vi, Desc: d, Op: OpRDMARead, Err: errOf(c.errCode)}
			return false
		}
		e.d = d
		return c.n > 0
	case ckAck:
		d, ok := n.pendSends[c.msgID]
		if !ok {
			return false
		}
		delete(n.pendSends, c.msgID)
		e.cq = d.vi.SendCQ
		e.comp = Completion{VI: d.vi, Desc: d, Op: d.Op, Len: d.Len, Err: errOf(c.errCode)}
		e.charge = d.span
	}
	return false
}

// rxFinish is the second half of a data cell's handling, after its DMA:
// the copy into host memory and the message's accounting. When the
// message is whole it arranges its completion and ack.
func (n *NIC) rxFinish() {
	e := &n.rx
	c := e.c
	switch c.kind {
	case ckSend:
		st := e.st
		if e.dma {
			st.desc.Region.land(st.desc.Offset, c)
			n.countIn(c)
		}
		st.got += c.n
		if !c.last {
			break
		}
		got, desc, vi, err := st.got, st.desc, st.vi, st.err
		n.freeReasm(reasmKey{c.src, c.msgID}, st)
		if got < c.total {
			// An injected drop lost part of the message. Deliver nothing
			// and send no ack: the sender's session surfaces the loss as a
			// timeout, the model's reliability-level connection break.
			break
		}
		if desc != nil {
			e.cq, e.charge = vi.RecvCQ, c.span
			e.comp = Completion{VI: vi, Desc: desc, Op: OpRecv, Len: c.total, Err: err, Trace: c.span}
		}
		e.ack, e.ackCode = true, codeOf(err)
	case ckRDMAWrite:
		st := e.st
		if e.dma {
			st.region.land(c.raddr, c)
			n.countIn(c)
		}
		st.got += c.n
		if !c.last {
			break
		}
		got, err := st.got, st.err
		n.freeReasm(reasmKey{c.src, c.msgID}, st)
		if got < c.total {
			break // lost message (see ckSend): no ack, sender times out
		}
		e.ack, e.ackCode = true, codeOf(err)
	case ckReadResp:
		d := e.d
		if d == nil {
			break
		}
		if e.dma {
			d.Region.land(d.Offset, c)
			n.countIn(c)
		}
		n.respGot[c.token] += c.n
		if !c.last {
			break
		}
		delete(n.pendReads, c.token)
		got := n.respGot[c.token]
		delete(n.respGot, c.token)
		if got < c.total {
			break // lost response (see ckSend): no completion, caller times out
		}
		e.cq, e.charge = d.vi.SendCQ, d.span
		e.comp = Completion{VI: d.vi, Desc: d, Op: OpRDMARead, Len: d.Len, Err: nil}
	}
}

// rxAck builds the ack rxFinish arranged, if any, as the cell to offer.
func (n *NIC) rxAck() {
	e := &n.rx
	if !e.ack {
		return
	}
	c := e.c
	e.out = n.prov.newCell(cell{
		kind: ckAck, dst: c.src, msgID: c.msgID, errCode: e.ackCode,
		span: c.span, wire: n.prov.Tracer.Begin(n.Node.Name, trace.LayerWire, "ack", c.span),
	})
}

// countIn counts a received cell's payload as DMA'd into host memory.
func (n *NIC) countIn(c *cell) {
	n.stats.CellsIn++
	n.stats.BytesIn += int64(c.n)
}

// serveRead answers an RDMA read request: an error response when the
// range is not registered, otherwise an internal descriptor on the send
// engine that streams the range back.
func (n *NIC) serveRead(c *cell) {
	r := n.lookup(c.rhandle, c.raddr, c.rlen)
	if r == nil {
		n.rx.out = n.prov.newCell(cell{
			kind: ckReadResp, dst: c.src, token: c.token,
			total: 0, last: true, errCode: ecProtection,
			span: c.span, wire: n.prov.Tracer.Begin(n.Node.Name, trace.LayerWire, "read-resp", c.span),
		})
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
// response, one that served an earlier read when there is one. The send
// engine gives it back once the response's cells are out.
func (n *NIC) newReadResp() *Descriptor {
	if k := len(n.freeReadResps); k > 0 {
		d := n.freeReadResps[k-1]
		n.freeReadResps = n.freeReadResps[:k-1]
		return d
	}
	return new(Descriptor)
}
