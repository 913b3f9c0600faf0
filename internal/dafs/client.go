package dafs

import (
	"cmp"
	"fmt"
	"slices"

	"dafsio/internal/fabric"
	"dafsio/internal/metrics"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// credits is the number of outstanding requests a session allows (and the
// number of receive descriptors each side pre-posts). A power of two: the
// slot pools are sim.Chan rings over rooms of this length.
const credits = 8

// Options configures a client session.
type Options struct {
	// MaxInline is the largest data payload carried inside a message;
	// larger transfers must use the direct (RDMA) operations.
	MaxInline int
	// CallTimeout, when positive, bounds every outstanding request in
	// simulated time: a call with no response after CallTimeout fails the
	// session with an error wrapping ErrSession and ErrTimeout. Zero (the
	// default) disables the deadline — a dead peer then hangs the call
	// forever, the pre-recovery behavior. Fault-tolerant callers (replica
	// failover) must set it: a crashed server never answers, so the
	// deadline is the only failure detector.
	CallTimeout sim.Time
	// Epoch is the cluster membership epoch the client dials with.
	// Servers reject connects whose epoch predates their admission fence
	// (ErrStaleEpoch) — a newly joined server only admits clients that
	// learned of the membership change that created it. Zero (the
	// default) means an unversioned client, admitted by any server whose
	// fence is unset; cluster.DialDAFSServer stamps the current epoch.
	// The exchange rides the out-of-band connection phase, so the on-wire
	// CONNECT message is unchanged.
	Epoch uint32
}

func (o *Options) withDefaults() Options {
	out := Options{MaxInline: 8192}
	if o != nil {
		if o.MaxInline > 0 {
			out.MaxInline = o.MaxInline
		}
		if o.CallTimeout > 0 {
			out.CallTimeout = o.CallTimeout
		}
		out.Epoch = o.Epoch
	}
	return out
}

// ClientStats counts a session's activity.
type ClientStats struct {
	Ops              int64
	InlineReadBytes  int64
	InlineWriteBytes int64
	DirectReadBytes  int64
	DirectWriteBytes int64
}

// slot is one message slot of a registered ring, with the descriptor it is
// posted with, reused every time the slot is: a message allocates nothing.
// The slot's bytes exist only while a message does, and only as many as
// it needs: the NIC sizes a received message's slot, Grow sizes a message
// encoded into it, and release hands the bytes back once the message is
// dead.
type slot struct {
	reg  *via.Region
	i    int
	desc via.Descriptor
}

func (s *slot) bytes() []byte { return s.reg.Slot(s.i) }

// Grow is the room a message body is encoded into (wire.Grower): the slot
// past the header, at least n bytes of it while the slot has them.
func (s *slot) Grow(n int) []byte { return s.reg.Grow(s.i, HeaderLen+n)[HeaderLen:] }

// release clears the first n bytes, the most the slot's message wrote, and
// gives the slot's bytes back.
func (s *slot) release(n int) { s.reg.Release(s.i, n) }

// Call is an in-flight request (the unit of the client's asynchronous API).
// It carries everything the request needs until it is collected: the
// future dispatch completes, the response body, and — as the same memory
// under another type — the IO its Start method returned. A session
// recycles its calls: the client owns one from start until wait returns,
// wait is its one consumer (an operation is waited once) and gives it back
// to the session's free list. XIDs are never reused, so a late response
// finds no call to land in.
type Call struct {
	c      *Client
	fut    sim.Future[error] // the session failure or the response's status error
	xid    uint32            // while pending: the request's XID
	op     trace.OpID        // request span: issue -> response decoded (0: untraced)
	issued sim.Time          // when the request hit the wire (call-latency metric)
	proc   Proc

	// The response body, copied out of the receive slot by dispatch, into
	// room while it fits (every metadata and data-operation reply does).
	// An inline read's data goes straight to into, the caller's buffer; n
	// and readErr are what that copy made of the body.
	body    []byte
	room    [16]byte
	into    []byte
	n       int
	readErr error
	r       rd // decodes body for wait

	next *Call // free-list link
	idle bool  // on the free list
}

// init sets up a call in place for session c.
func (call *Call) init(c *Client) {
	call.c = c
	call.fut.Init(c.k)
	call.body = call.room[:0]
}

// newCall takes a collected call off the free list, or makes a chunk of
// them, and sets it up for a proc request; into is the caller's buffer of
// an inline read.
func (c *Client) newCall(proc Proc, into []byte, op trace.OpID) *Call {
	call := c.freeCalls
	if call != nil {
		c.freeCalls, call.next, call.idle = call.next, nil, false
		call.fut.Reset()
	} else {
		call = c.makeCalls()
	}
	call.proc, call.into, call.op = proc, into, op
	call.n, call.readErr = 0, nil
	return call
}

// makeCalls makes a chunk of as many calls as the session has made so far
// (one, the first time), so a high-water of h calls in flight costs
// O(log h) allocations. It returns the first and frees the rest.
func (c *Client) makeCalls() *Call {
	chunk := make([]Call, max(1, c.madeCalls))
	c.madeCalls += len(chunk)
	for i := range chunk {
		chunk[i].init(c)
	}
	for i := len(chunk) - 1; i > 0; i-- {
		c.putCall(&chunk[i])
	}
	return &chunk[0]
}

// putCall gives a collected call back to its session.
func (c *Client) putCall(call *Call) {
	if call.idle {
		panic("dafs: call waited twice")
	}
	call.into, call.idle, call.next = nil, true, c.freeCalls
	c.freeCalls = call
}

// save copies a response body out of the receive slot that holds it, into
// the caller's buffer for a successful inline read and into the call's own
// storage for anything else. Dispatch calls it while the call is pending
// and before it yields, so the bytes go to the request they answer.
func (call *Call) save(st Status, body []byte) {
	if call.proc != ProcRead || st != StatusOK {
		call.body = append(call.body[:0], body...)
		return
	}
	call.r.Reset(body)
	data := call.r.Blob()
	call.n, call.readErr = copy(call.into, data), call.r.Err()
}

// wait blocks until the response arrives, hands a successful response's
// body to dec (nil: nothing to decode), and gives the call back to the
// session. It returns the transport failure, the status error or dec's.
func (call *Call) wait(p *sim.Proc, dec func(r *rd) error) error {
	err := call.fut.Get(p)
	c := call.c
	c.node.Compute(p, c.prof.WakeupLatency)
	if err == nil && dec != nil {
		call.r.Reset(call.body)
		err = dec(&call.r)
	}
	c.putCall(call)
	return err
}

// Client is one DAFS session. All methods must be called from simulated
// processes on the client's node; they are safe for concurrent use by
// multiple processes (outstanding requests are limited by session credits).
type Client struct {
	nic  *via.NIC
	node *fabric.Node
	prof *model.Profile
	k    *sim.Kernel

	// Dial target and negotiated options, kept so Redial can establish a
	// replacement session after a failure.
	srv  *Server
	opts Options

	// The session's parts live in its record: the VI, its completion
	// queue (a notify queue: dispatch runs on its completions), the credit
	// window, the request pool, the first call and the writer that
	// encodes every request (an encode never parks, so one is enough).
	vi      via.VI
	cq      via.CQ
	credits sim.Credits
	reqPool sim.Chan[*slot] // idle request slots, oldest freed first
	first   Call
	w       wr

	// The session's rings, registered into records it owns: one for
	// requests and one for responses, with their slot tables, the slots
	// (request i at 2i, response i at 2i+1) and the request pool's room. A
	// dial allocates them with the Client, not per slot. Dial tears the
	// rings down on its error paths and Redial on the session it
	// replaces; Deregister is idempotent, so a double teardown (failed
	// dial followed by redial) is harmless. Redial builds a new Client,
	// so no record is registered twice and a stale descriptor still finds
	// its region invalid.
	reqReg, respReg     via.Region
	reqTable, respTable [credits][]byte
	slots               [2 * credits]slot
	reqIdle             [credits]*slot

	// pending holds the calls awaiting a response. A call holds a credit
	// from issue to completion, so at most credits calls are ever
	// pending; each sits at the entry its XID picks, or the next free one
	// after it (see track).
	pending   [credits]*Call
	nextXID   uint32
	maxInline int
	slotSize  int

	freeCalls *Call // collected calls, for the next requests (newCall)
	madeCalls int   // calls made in chunks (makeCalls)

	// freeExpire pools per-call deadline timers: each carries a reusable
	// kernel event bound once to its own fire action, so arming a call
	// timeout allocates nothing in steady state.
	freeExpire *expireTimer

	tr          *trace.Tracer
	traceServer int // server index stamped on request spans (-1: untagged)
	m           clientMetrics

	closed  bool
	failErr error
	stats   ClientStats
}

// clientMetrics bundles the session's instruments. All sessions on one
// client node share the node's instruments (a striped pool dials one
// session per server, and redial replaces sessions mid-run), hence the
// Shared registrations; zero values (metrics off) are no-ops.
type clientMetrics struct {
	ops        metrics.Counter
	credits    metrics.Gauge // credits currently held (occupancy)
	creditWait metrics.Hist  // ns spent waiting for a credit + slot
	callNs     metrics.Hist  // wire-to-response latency per call
	timeouts   metrics.Counter
	failures   metrics.Counter // session failures (fail() invocations)
	redials    metrics.Counter
}

// newClientMetrics registers (or re-attaches) the per-node instruments.
// With metrics off it names nothing: the zero instruments are no-ops.
func newClientMetrics(reg *metrics.Registry, node string) clientMetrics {
	if reg == nil {
		return clientMetrics{}
	}
	pre := "dafs.client." + node + "."
	return clientMetrics{
		ops:        reg.SharedCounter(pre + "ops"),
		credits:    reg.SharedGauge(pre + "credits_held"),
		creditWait: reg.SharedHist(pre + "credit_wait_ns"),
		callNs:     reg.SharedHist(pre + "call_ns"),
		timeouts:   reg.SharedCounter(pre + "timeouts"),
		failures:   reg.SharedCounter(pre + "failures"),
		redials:    reg.SharedCounter(pre + "redials"),
	}
}

// Dial establishes a session with the server: it creates and connects the
// VI pair, registers message buffers on both sides, pre-posts receive
// descriptors, and runs the protocol CONNECT exchange.
func Dial(p *sim.Proc, nic *via.NIC, srv *Server, opts *Options) (*Client, error) {
	o := opts.withDefaults()
	prov := nic.Provider()
	c := &Client{
		nic:         nic,
		node:        nic.Node,
		prof:        prov.Prof,
		k:           prov.K,
		srv:         srv,
		opts:        o,
		maxInline:   o.MaxInline,
		slotSize:    HeaderLen + 512 + o.MaxInline,
		tr:          prov.Tracer,
		traceServer: -1,
	}
	c.m = newClientMetrics(prov.Metrics, nic.Node.Name)
	nic.InitCQ(&c.cq, nic.Label("dafs.cq"), c.dispatch)
	nic.InitVI(&c.vi, &c.cq, &c.cq)
	c.credits.Init(c.k, credits)
	c.reqPool.Init(c.k, 0, c.reqIdle[:])
	c.first.init(c)
	c.putCall(&c.first)

	// Connection management is out of band in VIA; model it as one round
	// trip plus the server-side session setup cost.
	p.Wait(2 * c.prof.WireLatency)
	if err := srv.accept(p, &c.vi, o, c.slotSize); err != nil {
		return nil, err
	}
	// Registered message rings: one for requests, one for responses
	// (pre-posted receives). The session owns both regions; every error path
	// below must unregister them or the pinned windows leak for the rest of
	// the run.
	nic.RegisterRing(p, &c.reqReg, c.reqTable[:], c.slotSize)
	nic.RegisterRing(p, &c.respReg, c.respTable[:], c.slotSize)
	for i := 0; i < credits; i++ {
		qs, rs := &c.slots[2*i], &c.slots[2*i+1]
		qs.reg, qs.i = &c.reqReg, i
		c.reqPool.TrySend(qs)
		rs.reg, rs.i = &c.respReg, i
		rs.desc = via.Descriptor{Region: &c.respReg, Offset: i * c.slotSize, Len: c.slotSize, Ctx: rs}
		if err := c.vi.PostRecv(p, &rs.desc); err != nil {
			c.unregister(p)
			return nil, err
		}
	}

	// Protocol-level CONNECT.
	var gotCredits, gotInline int
	var decErr error
	err := c.roundtrip(p, ProcConnect, func(w *wr) {
		w.U16(uint16(credits))
		w.U32(uint32(o.MaxInline))
	}, func(r *rd) error {
		gotCredits, gotInline = int(r.U16()), int(r.U32())
		decErr = r.Err()
		return nil
	})
	if err != nil {
		c.unregister(p)
		return nil, fmt.Errorf("dafs: connect: %w", err)
	}
	if decErr != nil {
		c.unregister(p)
		return nil, decErr
	}
	if gotCredits != credits || gotInline != o.MaxInline {
		c.unregister(p)
		return nil, fmt.Errorf("%w: negotiation mismatch", ErrProto)
	}
	return c, nil
}

// unregister releases the session's message-buffer registrations. Safe to
// call more than once (Deregister on an invalid region is a no-op);
// outstanding descriptors over the regions complete with ErrInvalidRegion,
// which is the intended fate of traffic on a torn-down session.
func (c *Client) unregister(p *sim.Proc) {
	c.nic.Deregister(p, &c.reqReg)
	c.nic.Deregister(p, &c.respReg)
}

// NIC returns the client's VIA NIC (for registering user buffers used in
// direct transfers).
func (c *Client) NIC() *via.NIC { return c.nic }

// Node returns the client's host.
func (c *Client) Node() *fabric.Node { return c.node }

// MaxInline returns the negotiated inline data limit.
func (c *Client) MaxInline() int { return c.maxInline }

// Tracer returns the provider tracer the session records to (nil when
// tracing is off).
func (c *Client) Tracer() *trace.Tracer { return c.tr }

// SetTraceServer tags every subsequent request span with the given server
// index, so a striped driver's per-stripe fan-out is attributable in the
// trace. -1 (the default) leaves spans untagged.
func (c *Client) SetTraceServer(s int) { c.traceServer = s }

// MaxBatch returns the largest segment list one batch request can carry on
// this session (bounded by the protocol limit and the message size).
func (c *Client) MaxBatch() int {
	bySlot := (c.slotSize - HeaderLen - 20) / 12
	return min(MaxBatchSegs, bySlot)
}

// Stats returns a copy of the session counters.
func (c *Client) Stats() ClientStats { return c.stats }

// dispatch is the session's completion handler: it routes responses to
// waiting calls, recycles request buffers, and re-posts receives. It runs
// on the notify queue's drain proc, one completion at a time.
func (c *Client) dispatch(p *sim.Proc, comp via.Completion) {
	switch comp.Op {
	case via.OpSend:
		s := comp.Desc.Ctx.(*slot)
		if comp.Err != nil {
			c.fail(comp.Err)
		}
		s.release(comp.Desc.Len)
		c.reqPool.TrySend(s)
	case via.OpRecv:
		s := comp.Desc.Ctx.(*slot)
		if comp.Err != nil {
			c.fail(comp.Err)
			return
		}
		msg := s.bytes()[:comp.Len]
		hdr, err := decodeHeader(msg)
		if err != nil {
			c.fail(err)
			return
		}
		var callOp trace.OpID
		if call := c.lookup(hdr.XID); call != nil {
			callOp = call.op
			// The body leaves the slot now, while the call is known to
			// be pending: once the charges below yield, its deadline
			// may fail it and its caller recycle it.
			call.save(hdr.Status, msg[HeaderLen:HeaderLen+int(hdr.BodyLen)])
		}
		s.release(comp.Len) // the message is dead once saved
		t0 := p.Now()
		c.node.Compute(p, c.prof.MarshalCost)
		if hdr.BodyLen > 0 {
			// Copying the payload out of the registered receive
			// buffer: the inline path's receive-side copy.
			c.node.Compute(p, c.prof.CopyTime(int(hdr.BodyLen)))
		}
		c.tr.Charge(callOp, trace.CatClientCPU, p.Now()-t0)
		if err := c.vi.PostRecv(p, &s.desc); err != nil {
			c.fail(err)
		}
		// The charges above yield. If the call's deadline fired in one
		// of them (or the re-post failed the session), fail() has
		// already completed the call and released its credit: the
		// response is late and is dropped.
		if call := c.untrack(hdr.XID); call != nil {
			// The credit frees when the response arrives, not when
			// the issuer collects it — a caller pipelining more
			// requests than credits must not deadlock against
			// itself.
			c.credits.Release(1)
			c.m.credits.Add(-1)
			c.m.callNs.Observe(int64(p.Now() - call.issued))
			c.tr.End(call.op)
			call.fut.Set(hdr.Status.Err())
		}
	}
}

// track enters an issued call in the pending table: at the entry its XID
// picks, or, while an older call still holds that one, the next free entry
// after it.
func (c *Client) track(call *Call) {
	for i := range uint32(credits) {
		if e := &c.pending[(call.xid+i)%credits]; *e == nil {
			*e = call
			return
		}
	}
	panic("dafs: more calls pending than credits")
}

// find returns the pending-table entry of the call with this XID, or nil
// when no such call is pending. It compares the whole XID: a late response
// whose entry now holds a newer call must not land in it.
func (c *Client) find(xid uint32) **Call {
	for i := range uint32(credits) {
		if e := &c.pending[(xid+i)%credits]; *e != nil && (*e).xid == xid {
			return e
		}
	}
	return nil
}

// lookup returns the pending call with this XID, or nil.
func (c *Client) lookup(xid uint32) *Call {
	if e := c.find(xid); e != nil {
		return *e
	}
	return nil
}

// untrack removes the call with this XID from the pending table and
// returns it (nil when it is not pending).
func (c *Client) untrack(xid uint32) *Call {
	e := c.find(xid)
	if e == nil {
		return nil
	}
	call := *e
	*e = nil
	return call
}

// fail marks the session broken and fails every pending call. The first
// failure is sticky: a second transport failure must not overwrite failErr,
// or callers collecting a late completion would see a different error than
// the one that actually broke the session. The cause is wrapped alongside
// ErrSession (both `%w`), so a deadline-induced failure matches ErrTimeout
// too. Pending calls complete in XID (issue) order, not in the order they
// sit in the pending table: that order depends on which calls completed
// before, and wakeup order — and therefore simulated time after a failure —
// must follow issue order alone.
func (c *Client) fail(err error) {
	if c.failErr == nil {
		c.failErr = fmt.Errorf("%w: %w", ErrSession, err)
		c.m.failures.Inc()
	}
	c.closed = true
	pending := c.pending
	c.pending = [credits]*Call{}
	calls := slices.DeleteFunc(pending[:], func(call *Call) bool { return call == nil })
	slices.SortFunc(calls, func(a, b *Call) int { return cmp.Compare(a.xid, b.xid) })
	for _, call := range calls {
		c.credits.Release(1)
		c.m.credits.Add(-1)
		c.tr.End(call.op)
		call.fut.Set(c.failErr)
	}
}

// start issues a request asynchronously. enc encodes the body; into is the
// caller's buffer for an inline read's data (nil for anything else).
func (c *Client) start(p *sim.Proc, proc Proc, into []byte, enc func(w *wr)) (*Call, error) {
	if c.closed {
		if c.failErr != nil {
			return nil, c.failErr
		}
		return nil, ErrClosed
	}
	// The request span opens before the credit wait so that session-level
	// backpressure shows up as queue time on the operation that suffered it.
	op := c.tr.BeginTagged(c.node.Name, trace.LayerDAFS, proc.String(), trace.OpID(p.TraceCtx()), 0, c.traceServer)
	t0 := p.Now()
	// The credit is the session's flow-control window: held for the whole
	// request lifetime and released by the completion handler when the
	// response arrives (or by fail() on session death), never by this
	// proc — so parking on the slot pool or send queue below cannot
	// deadlock against the release.
	c.credits.Acquire(p, 1)
	s, _ := c.reqPool.Recv(p)
	c.m.credits.Add(1)
	if wait := p.Now() - t0; wait > 0 {
		c.m.creditWait.Observe(int64(wait))
	}
	c.tr.Charge(op, trace.CatQueue, p.Now()-t0)
	w := &c.w
	w.ResetGrow(s)
	enc(w)
	if w.Err() != nil {
		s.release(HeaderLen + w.Len())
		c.reqPool.TrySend(s)
		c.credits.Release(1)
		c.m.credits.Add(-1)
		c.tr.End(op)
		return nil, w.Err()
	}
	c.nextXID++
	xid := c.nextXID
	c.tr.SetXID(op, uint64(xid))
	n := HeaderLen + w.Len()
	encodeHeader(s.reg.Grow(s.i, n), Header{Proc: proc, XID: xid, BodyLen: uint32(w.Len())})
	// Building the request: marshal plus the copy into registered memory
	// (for inline writes this is the send-side data copy).
	t1 := p.Now()
	c.node.Compute(p, c.prof.MarshalCost+c.prof.CopyTime(n))
	c.tr.Charge(op, trace.CatClientCPU, p.Now()-t1)
	call := c.newCall(proc, into, op)
	call.xid = xid
	c.track(call)
	old := p.SetTraceCtx(uint64(op))
	s.desc = via.Descriptor{Op: via.OpSend, Region: s.reg, Offset: s.i * c.slotSize, Len: n, Ctx: s}
	err := c.vi.PostSend(p, &s.desc)
	p.SetTraceCtx(old)
	if err != nil {
		c.untrack(xid)
		c.putCall(call)
		s.release(n)
		c.reqPool.TrySend(s)
		c.credits.Release(1)
		c.m.credits.Add(-1)
		c.tr.End(op)
		return nil, err
	}
	call.issued = p.Now()
	c.m.ops.Inc()
	if c.opts.CallTimeout > 0 {
		// Arm the per-call deadline. The timer fires in kernel context at
		// the deadline; if the response has arrived by then the call is no
		// longer pending and the timer is a no-op.
		t := c.freeExpire
		if t != nil {
			c.freeExpire = t.next
			t.next = nil
		} else {
			t = &expireTimer{c: c}
			t.ev = c.k.NewEvent(t.fire)
		}
		t.xid = xid
		c.k.AfterEvent(t.ev, c.opts.CallTimeout)
	}
	c.stats.Ops++
	return call, nil
}

// expireTimer is a pooled per-call deadline: one reusable kernel event
// plus the xid it currently guards.
type expireTimer struct {
	c    *Client
	xid  uint32
	ev   *sim.Event
	next *expireTimer // free-list link
}

// fire returns the timer to its client's pool and runs the expiry check.
func (t *expireTimer) fire() {
	c, xid := t.c, t.xid
	t.next = c.freeExpire
	c.freeExpire = t
	c.expire(xid)
}

// expire fails the session when a call outlives Options.CallTimeout. The
// whole session fails — not just the one call — because on a reliable
// transport a missing response means the peer (or the path to it) is gone,
// DAFS's session-level failure semantics.
func (c *Client) expire(xid uint32) {
	if c.lookup(xid) == nil {
		return
	}
	c.m.timeouts.Inc()
	c.fail(fmt.Errorf("%w: call %d got no response within %v", ErrTimeout, xid, c.opts.CallTimeout))
}

// roundtrip issues a request and waits for its response, which dec
// decodes (see Call.wait).
func (c *Client) roundtrip(p *sim.Proc, proc Proc, enc func(w *wr), dec func(r *rd) error) error {
	call, err := c.start(p, proc, nil, enc)
	if err != nil {
		return err
	}
	return call.wait(p, dec)
}

// ---- Operations ----
//
// Every operation but Append has a Start method, which issues it and
// returns its IO, the one in-flight type. A striped driver talks to Width
// independent servers; issuing the per-server requests concurrently and
// then collecting turns a Width-proportional latency into roughly one
// round trip. The blocking forms are a Start and its Wait, except Lookup
// and Create, which decode the file's attributes too, and Append.

// IO is an in-flight operation: its Call, collected by Wait.
type IO Call

// Wait blocks until the operation completes and returns the reply's one
// value: the handle of a Lookup or Create, the size of a Getattr, the
// bytes a data operation moved (short at EOF), and 0 otherwise. The
// session's byte counters count only what the server acknowledged.
func (io *IO) Wait(p *sim.Proc) (int, error) {
	call := (*Call)(io)
	c := call.c
	var n int
	err := call.wait(p, func(r *rd) error {
		switch call.proc {
		case ProcRead:
			// dispatch has already copied the data into the caller's buffer.
			if call.readErr != nil {
				return call.readErr
			}
			n = call.n
			c.stats.InlineReadBytes += int64(n)
			return nil
		case ProcLookup, ProcCreate, ProcGetattr:
			n = int(r.U64())
		case ProcWrite:
			n = int(r.U32())
			c.stats.InlineWriteBytes += int64(n)
		case ProcReadDirect, ProcReadBatch:
			n = int(r.U32())
			c.stats.DirectReadBytes += int64(n)
		case ProcWriteDirect, ProcWriteBatch:
			n = int(r.U32())
			c.stats.DirectWriteBytes += int64(n)
		}
		return r.Err()
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// startIO issues a request (see start) as an IO.
func (c *Client) startIO(p *sim.Proc, proc Proc, into []byte, enc func(w *wr)) (*IO, error) {
	call, err := c.start(p, proc, into, enc)
	return (*IO)(call), err
}

// await waits for io unless its start failed: a Start's blocking form.
func await(p *sim.Proc, io *IO, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return io.Wait(p)
}

// ---- Namespace and attribute operations ----

// StartLookup issues a Lookup of a name; Wait yields its file handle.
func (c *Client) StartLookup(p *sim.Proc, name string) (*IO, error) {
	return c.startIO(p, ProcLookup, nil, func(w *wr) { w.Str(name) })
}

// StartCreate issues a Create of a new file; Wait yields its handle.
func (c *Client) StartCreate(p *sim.Proc, name string) (*IO, error) {
	return c.startIO(p, ProcCreate, nil, func(w *wr) { w.Str(name) })
}

// Lookup resolves a name to a file handle and attributes.
func (c *Client) Lookup(p *sim.Proc, name string) (FH, Attr, error) {
	return c.resolve(p, ProcLookup, name)
}

// Create makes a new file and returns its handle.
func (c *Client) Create(p *sim.Proc, name string) (FH, Attr, error) {
	return c.resolve(p, ProcCreate, name)
}

// resolve runs a Lookup or Create and decodes its whole reply: the handle
// and the file's attributes.
func (c *Client) resolve(p *sim.Proc, proc Proc, name string) (FH, Attr, error) {
	var fh FH
	var a Attr
	err := c.roundtrip(p, proc, func(w *wr) { w.Str(name) }, func(r *rd) error {
		fh, a.Size = FH(r.U64()), int64(r.U64())
		return r.Err()
	})
	return fh, a, err
}

// StartRemove issues the deletion of a file by name.
func (c *Client) StartRemove(p *sim.Proc, name string) (*IO, error) {
	return c.startIO(p, ProcRemove, nil, func(w *wr) { w.Str(name) })
}

// StartGetattr issues a Getattr; Wait yields the file's size.
func (c *Client) StartGetattr(p *sim.Proc, fh FH) (*IO, error) {
	return c.startIO(p, ProcGetattr, nil, func(w *wr) { w.U64(uint64(fh)) })
}

// StartSetattr issues a Setattr, which truncates (or extends) the file to
// size.
func (c *Client) StartSetattr(p *sim.Proc, fh FH, size int64) (*IO, error) {
	return c.startIO(p, ProcSetattr, nil, func(w *wr) { w.U64(uint64(fh)); w.U64(uint64(size)) })
}

// Setattr truncates (or extends) the file to size.
func (c *Client) Setattr(p *sim.Proc, fh FH, size int64) error {
	io, err := c.StartSetattr(p, fh, size)
	_, err = await(p, io, err)
	return err
}

// StartFsync issues an Fsync, which commits the file's data (a no-op
// timing-wise on the cached store, a disk access on an uncached one).
func (c *Client) StartFsync(p *sim.Proc, fh FH) (*IO, error) {
	return c.startIO(p, ProcFsync, nil, func(w *wr) { w.U64(uint64(fh)) })
}

// ---- Inline data operations ----

// Read performs an inline read into buf; data travels in the response
// message and is copied out by the client CPU. len(buf) must not exceed
// MaxInline. Returns the byte count (short at EOF).
func (c *Client) Read(p *sim.Proc, fh FH, off int64, buf []byte) (int, error) {
	io, err := c.StartRead(p, fh, off, buf)
	return await(p, io, err)
}

// StartRead issues an inline read without waiting.
func (c *Client) StartRead(p *sim.Proc, fh FH, off int64, buf []byte) (*IO, error) {
	if len(buf) > c.maxInline {
		return nil, ErrTooBig
	}
	return c.startIO(p, ProcRead, buf, func(w *wr) {
		w.U64(uint64(fh))
		w.U64(uint64(off))
		w.U32(uint32(len(buf)))
	})
}

// Write performs an inline write; data travels in the request message.
// len(data) must not exceed MaxInline.
func (c *Client) Write(p *sim.Proc, fh FH, off int64, data []byte) (int, error) {
	io, err := c.StartWrite(p, fh, off, data)
	return await(p, io, err)
}

// StartWrite issues an inline write without waiting.
func (c *Client) StartWrite(p *sim.Proc, fh FH, off int64, data []byte) (*IO, error) {
	if len(data) > c.maxInline {
		return nil, ErrTooBig
	}
	return c.startIO(p, ProcWrite, nil, func(w *wr) {
		w.U64(uint64(fh))
		w.U64(uint64(off))
		w.Blob(data)
	})
}

// Append atomically appends data at the server-chosen end of file and
// returns the offset at which it landed.
func (c *Client) Append(p *sim.Proc, fh FH, data []byte) (int64, error) {
	if len(data) > c.maxInline {
		return 0, ErrTooBig
	}
	var off int64
	err := c.roundtrip(p, ProcAppend, func(w *wr) {
		w.U64(uint64(fh))
		w.Blob(data)
	}, func(r *rd) error {
		c.stats.InlineWriteBytes += int64(len(data))
		off = int64(r.U64())
		return r.Err()
	})
	return off, err
}

// ---- Direct (RDMA) data operations ----

// ReadDirect reads n bytes at off into registered client memory
// (reg[regOff:regOff+n]); the server RDMA-writes the data, so the client
// CPU never touches it. Returns the byte count (short at EOF).
func (c *Client) ReadDirect(p *sim.Proc, fh FH, off int64, reg *via.Region, regOff, n int) (int, error) {
	io, err := c.StartReadDirect(p, fh, off, reg, regOff, n)
	return await(p, io, err)
}

// StartReadDirect issues a direct read without waiting.
func (c *Client) StartReadDirect(p *sim.Proc, fh FH, off int64, reg *via.Region, regOff, n int) (*IO, error) {
	return c.startDirect(p, ProcReadDirect, fh, off, reg, regOff, n)
}

// WriteDirect writes n bytes from registered client memory at off; the
// server RDMA-reads the data out of the client.
func (c *Client) WriteDirect(p *sim.Proc, fh FH, off int64, reg *via.Region, regOff, n int) (int, error) {
	io, err := c.StartWriteDirect(p, fh, off, reg, regOff, n)
	return await(p, io, err)
}

// StartWriteDirect issues a direct write without waiting.
func (c *Client) StartWriteDirect(p *sim.Proc, fh FH, off int64, reg *via.Region, regOff, n int) (*IO, error) {
	return c.startDirect(p, ProcWriteDirect, fh, off, reg, regOff, n)
}

func (c *Client) startDirect(p *sim.Proc, proc Proc, fh FH, off int64, reg *via.Region, regOff, n int) (*IO, error) {
	if regOff < 0 || n < 0 || regOff+n > reg.Len() {
		return nil, ErrInval
	}
	return c.startIO(p, proc, nil, func(w *wr) {
		w.U64(uint64(fh))
		w.U64(uint64(off))
		w.U32(uint32(n))
		w.U32(uint32(reg.Handle))
		w.U32(uint32(regOff))
	})
}

// SegSpec names one file segment of a batch operation.
type SegSpec struct {
	Off int64
	Len int
}

// StartReadBatch issues one scatter-read request: the server gathers every
// (off, len) segment of the file and delivers all of them with a single
// RDMA write into reg[regOff:...], where segment i lands after segments
// 0..i-1 (fixed slots; EOF holes read as zero). This is DAFS's batch I/O —
// the protocol-level answer to noncontiguous access. Wait yields the total
// bytes that existed (segments past EOF contribute short counts).
func (c *Client) StartReadBatch(p *sim.Proc, fh FH, segs []SegSpec, reg *via.Region, regOff int) (*IO, error) {
	return c.startBatch(p, ProcReadBatch, fh, segs, reg, regOff)
}

// StartWriteBatch issues one gather-write: the server RDMA-reads the
// packed segment data from reg[regOff:...] in a single transfer and places
// each segment at its file offset.
func (c *Client) StartWriteBatch(p *sim.Proc, fh FH, segs []SegSpec, reg *via.Region, regOff int) (*IO, error) {
	return c.startBatch(p, ProcWriteBatch, fh, segs, reg, regOff)
}

// startBatch validates a segment list against the registered buffer (the
// segments occupy consecutive bytes of reg from regOff) and issues it.
func (c *Client) startBatch(p *sim.Proc, proc Proc, fh FH, segs []SegSpec, reg *via.Region, regOff int) (*IO, error) {
	if len(segs) == 0 || len(segs) > MaxBatchSegs {
		return nil, ErrInval
	}
	total := 0
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 {
			return nil, ErrInval
		}
		total += s.Len
	}
	if regOff < 0 || regOff+total > reg.Len() {
		return nil, ErrInval
	}
	return c.startIO(p, proc, nil, func(w *wr) { encodeBatch(w, fh, segs, reg, regOff) })
}

func encodeBatch(w *wr, fh FH, segs []SegSpec, reg *via.Region, regOff int) {
	w.U64(uint64(fh))
	w.U32(uint32(reg.Handle))
	w.U32(uint32(regOff))
	w.U16(uint16(len(segs)))
	for _, s := range segs {
		w.U64(uint64(s.Off))
		w.U32(uint32(s.Len))
	}
}

// Close disconnects the session and, once the DISCONNECT reply is in (or
// the session failed waiting for it), deregisters its message buffers.
// Closing a session that already failed only deregisters its buffers and
// reports the original wrapped ErrSession — not a secondary error: the
// caller tearing down after a failure needs the root cause, and there is
// no peer left to disconnect from.
func (c *Client) Close(p *sim.Proc) error {
	if c.failErr != nil {
		c.unregister(p)
		return c.failErr
	}
	if c.closed {
		return nil
	}
	err := c.roundtrip(p, ProcDisconnect, func(w *wr) {}, nil)
	c.closed = true
	c.unregister(p)
	return err
}

// Redial establishes a fresh session to the same server with the same
// options, preserving the trace tag. The old session (typically already
// failed) keeps its state, but its message-buffer registrations are torn
// down — the replacement pins its own, and leaving the dead session's
// windows registered would leak pinned memory once per failover.
// Server-side file handles are store-level, so handles resolved on the
// old session stay valid on the new one — the property replica failover
// relies on to resume I/O without re-opening files.
func (c *Client) Redial(p *sim.Proc) (*Client, error) {
	nc, err := Dial(p, c.nic, c.srv, &c.opts)
	if err != nil {
		return nil, err
	}
	c.unregister(p)
	// The replacement takes over the calls collected on this session, but
	// for the one in its record: the new session has its own, and holding
	// this one would keep the whole dead session alive.
	for c.freeCalls != nil {
		call := c.freeCalls
		c.freeCalls = call.next
		if call == &c.first {
			continue
		}
		call.c, call.next = nc, nc.freeCalls
		nc.freeCalls = call
	}
	nc.traceServer = c.traceServer
	nc.m.redials.Inc()
	return nc, nil
}
