// Package trace records cross-layer spans on simulated time.
//
// Every span is a (start, end) pair of sim.Time readings taken around code
// that already exists: the tracer never waits, computes, or sends anything
// itself, so attaching it cannot change a single simulated timestamp — the
// diff-verified results.txt is identical with tracing on or off. Spans form
// a tree across layers and nodes: an MPI-IO operation parents its per-stripe
// DAFS requests, each request parents the VIA descriptor that carries it,
// the descriptor parents its wire message, and the server's execution span
// (on another node) parents back through the request's descriptor. The
// parent id travels between layers in sim.Proc's opaque trace context and
// between nodes inside the simulated cell payload (which carries no wire
// cost: only Frame.Bytes is timed).
//
// On top of the raw spans sit three reports: per-(layer, op) latency
// histograms, a per-category time breakdown of each root operation's
// subtree, and a Chrome trace-event JSON export (chrome://tracing,
// Perfetto). All three are deterministic: same experiment, same bytes.
package trace

import (
	"dafsio/internal/sim"
)

// OpID identifies one span. 0 is "no span" everywhere.
type OpID uint64

// Layer names the architectural layer a span belongs to.
type Layer uint8

// Layers, ordered top of the stack to bottom.
const (
	LayerMPIIO Layer = iota
	LayerAggregate
	LayerDAFS
	LayerVIA
	LayerWire
	LayerServer
	LayerDisk
	numLayers
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerMPIIO:
		return "mpiio"
	case LayerAggregate:
		return "aggregate"
	case LayerDAFS:
		return "dafs"
	case LayerVIA:
		return "via"
	case LayerWire:
		return "wire"
	case LayerServer:
		return "server"
	case LayerDisk:
		return "disk"
	default:
		return "layer?"
	}
}

// Category is a critical-path cost class a span's time can be charged to.
type Category uint8

// Breakdown categories. Charges within one request are mostly sequential,
// but the NIC pipelines DMA against the wire within a message, so category
// sums can legitimately exceed a span's duration; the breakdown report
// treats them as attributions, not a partition.
const (
	CatClientCPU Category = iota // marshal + copies on the client host
	CatDoorbell                  // descriptor post (doorbell ring)
	CatNIC                       // NIC descriptor processing + host DMA
	CatWire                      // link serialization + propagation
	CatServerCPU                 // server-side marshal, op exec, copies
	CatDisk                      // disk arm + media transfer
	CatQueue                     // credit, work-queue, and link arbitration waits
	CatRetry                     // failover backoff + recovery waits
	NumCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatClientCPU:
		return "client-cpu"
	case CatDoorbell:
		return "doorbell"
	case CatNIC:
		return "nic-dma"
	case CatWire:
		return "wire"
	case CatServerCPU:
		return "server-cpu"
	case CatDisk:
		return "disk"
	case CatQueue:
		return "queue-wait"
	case CatRetry:
		return "retry"
	default:
		return "cat?"
	}
}

// Span is one recorded operation. End < Start (-1) marks a span still open.
type Span struct {
	ID     OpID
	Parent OpID
	Track  string // node or proc the span runs on (one export track each)
	Layer  Layer
	Op     string
	XID    uint64 // protocol transaction id (0: none)
	Server int    // server index for striped fan-out (-1: n/a)
	Start  sim.Time
	End    sim.Time
}

// Dur returns the span duration (0 while open).
func (s *Span) Dur() sim.Time {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Tracer records spans and charges. All methods are nil-safe: a nil *Tracer
// is the disabled tracer, so instrumented code needs no branches beyond the
// ones it already has. The tracer must only be used from simulated
// processes (the kernel runs at most one at a time, so no locking).
type Tracer struct {
	k       *sim.Kernel
	spans   []Span
	index   map[OpID]int // span id -> index in spans
	charges map[OpID]*[NumCategories]sim.Time
	nextID  OpID
}

// New creates a tracer on the kernel's clock.
func New(k *sim.Kernel) *Tracer {
	return &Tracer{
		k:       k,
		index:   make(map[OpID]int),
		charges: make(map[OpID]*[NumCategories]sim.Time),
	}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Begin opens a span starting now. parent may be 0 (a root span).
func (t *Tracer) Begin(track string, layer Layer, op string, parent OpID) OpID {
	if t == nil {
		return 0
	}
	return t.begin(track, layer, op, parent, 0, -1, t.k.Now())
}

// BeginTagged opens a span carrying a transaction id and server index.
func (t *Tracer) BeginTagged(track string, layer Layer, op string, parent OpID, xid uint64, server int) OpID {
	if t == nil {
		return 0
	}
	return t.begin(track, layer, op, parent, xid, server, t.k.Now())
}

// BeginAt opens a span whose start was observed earlier than the call (a
// request's arrival stamped before it queued for a worker). at must not be
// in the future.
func (t *Tracer) BeginAt(track string, layer Layer, op string, parent OpID, xid uint64, server int, at sim.Time) OpID {
	if t == nil {
		return 0
	}
	if now := t.k.Now(); at > now {
		at = now
	}
	return t.begin(track, layer, op, parent, xid, server, at)
}

func (t *Tracer) begin(track string, layer Layer, op string, parent OpID, xid uint64, server int, at sim.Time) OpID {
	t.nextID++
	id := t.nextID
	t.index[id] = len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Track: track, Layer: layer, Op: op,
		XID: xid, Server: server, Start: at, End: -1,
	})
	return id
}

// End closes a span at the current instant. Ending 0 or an already-closed
// span is a no-op, so error paths may End unconditionally.
func (t *Tracer) End(id OpID) {
	if t == nil || id == 0 {
		return
	}
	if i, ok := t.index[id]; ok && t.spans[i].End < t.spans[i].Start {
		t.spans[i].End = t.k.Now()
	}
}

// SetXID stamps a span's transaction id after it was opened (the DAFS
// client allocates the XID only once it holds a credit and a slot).
func (t *Tracer) SetXID(id OpID, xid uint64) {
	if t == nil || id == 0 {
		return
	}
	if i, ok := t.index[id]; ok {
		t.spans[i].XID = xid
	}
}

// Charge attributes d of virtual time on span id to a cost category.
// Non-positive charges are dropped.
func (t *Tracer) Charge(id OpID, cat Category, d sim.Time) {
	if t == nil || id == 0 || d <= 0 {
		return
	}
	c := t.charges[id]
	if c == nil {
		c = new([NumCategories]sim.Time)
		t.charges[id] = c
	}
	c[cat] += d
}

// Now returns the kernel's current virtual time.
func (t *Tracer) Now() sim.Time {
	if t == nil {
		return 0
	}
	return t.k.Now()
}

// Spans returns the recorded spans in creation order. The slice is the
// tracer's own storage: read, don't mutate.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}
