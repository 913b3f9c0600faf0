// Package via implements the Virtual Interface Architecture (VIA) over the
// simulated SAN fabric.
//
// VIA is the user-level networking layer the paper's DAFS client runs on.
// The package implements the architecture's visible machinery rather than
// abstracting it away: NICs with protected memory registration (handles,
// bounds checks), Virtual Interfaces (VIs) with send and receive descriptor
// work queues, doorbells, completion queues, two-sided send/receive, and
// one-sided RDMA Read and RDMA Write in the reliable-delivery mode.
//
// Inside a NIC, transfers are segmented into cells so that host DMA, the
// transmit link, and the receive path pipeline within a single message —
// this is what lets large transfers approach link bandwidth while small
// ones remain latency-bound, exactly the behaviour the paper's
// microbenchmarks rest on.
package via

import (
	"errors"
	"fmt"

	"dafsio/internal/fabric"
	"dafsio/internal/fault"
	"dafsio/internal/metrics"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// Op identifies the operation a descriptor describes.
type Op uint8

// Descriptor operations.
const (
	OpSend Op = iota
	OpRecv
	OpRDMAWrite
	OpRDMARead
	opReadResp // internal: target-side streaming of an RDMA read
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpRDMAWrite:
		return "rdma-write"
	case OpRDMARead:
		return "rdma-read"
	case opReadResp:
		return "read-resp"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Errors surfaced through completions or VI state.
var (
	ErrNotConnected  = errors.New("via: VI not connected")
	ErrInvalidRegion = errors.New("via: invalid or foreign memory region")
	ErrBounds        = errors.New("via: descriptor exceeds region bounds")
	ErrProtection    = errors.New("via: remote protection violation")
	ErrRecvUnderrun  = errors.New("via: receive queue underrun")
	ErrRecvTooSmall  = errors.New("via: receive buffer smaller than message")
	ErrVIError       = errors.New("via: VI in error state")
	ErrBadOp         = errors.New("via: invalid descriptor operation")
)

// Provider owns all NICs on one fabric.
type Provider struct {
	Fab  *fabric.Fabric
	K    *sim.Kernel
	Prof *model.Profile

	// Tracer, when set before traffic starts, records a span for every
	// posted descriptor and wire message. Tracing is purely observational
	// (sim.Time readings around existing costs); simulated timing is
	// identical with it on or off.
	Tracer *trace.Tracer

	// Faults, when set before traffic starts, injects the plan's wire
	// faults: every NIC consults it on the cell transmit path for stall
	// windows and drop/duplicate verdicts. Nil means a fault-free fabric
	// with bit-identical behaviour to builds without the hook.
	Faults *fault.Injector

	// Metrics, when set before NICs are created, registers per-NIC
	// instruments (tx/rx bytes, doorbells, CQ depth, pinned regions) with
	// the registry. Observational only, like Tracer; nil disables.
	Metrics *metrics.Registry

	nics      map[fabric.NodeID]*NIC
	freeCells []*cell // recycled wire cells, each with its payload buffer

	// Ring slot buffers no message holds, one free list per slot size, and
	// the ledger RingMem reports.
	slotFrees    []*slotFree
	ringIdle     int
	ringIdleHigh int
}

// NewProvider creates a VIA provider for the fabric.
func NewProvider(fab *fabric.Fabric) *Provider {
	return &Provider{Fab: fab, K: fab.K, Prof: fab.Prof, nics: make(map[fabric.NodeID]*NIC)}
}

// Stats aggregates a NIC's activity counters.
type Stats struct {
	SendsPosted int64
	RecvsPosted int64
	RDMAWrites  int64
	RDMAReads   int64
	CellsOut    int64
	BytesOut    int64 // payload bytes DMA'd out of host memory
	CellsIn     int64
	BytesIn     int64 // payload bytes DMA'd into host memory
}

// NIC is a VIA network interface on one node; it consumes the node port's
// VIA cells (other traffic, e.g. the kernel stack's packets, may share the
// port).
type NIC struct {
	Node *fabric.Node

	prov  *Provider
	iface *fabric.Iface
	txDMA *sim.Resource
	rxDMA *sim.Resource

	sendWork *sim.Chan[*Descriptor]
	txQ      *sim.Chan[*cell]

	vis        []*VI
	cqs        []*CQ
	regions    map[MemHandle]*Region
	nextHandle MemHandle

	msgSeq    uint64
	readSeq   uint64
	pendSends map[uint64]*Descriptor // msgID -> awaiting delivery ack
	pendReads map[uint64]*Descriptor // token -> awaiting RDMA read data
	respGot   map[uint64]int         // token -> RDMA read bytes received
	reasm     map[reasmKey]*reasmState

	// Recycled NIC-side state: reassembly states of finished messages and
	// the internal descriptors of RDMA read responses already streamed.
	freeReasms    []*reasmState
	freeReadResps []*Descriptor

	dead bool // fail-stopped: transmits and receives nothing

	stats Stats
}

type reasmKey struct {
	src   fabric.NodeID
	msgID uint64
}

type reasmState struct {
	desc   *Descriptor // matched receive descriptor (nil: discarding)
	vi     *VI
	region *Region // RDMA write target
	err    error
	got    int
}

// NewNIC attaches a VIA NIC to the node and starts its processing engines.
func (pr *Provider) NewNIC(node *fabric.Node) *NIC {
	iface := node.Claim("via", func(payload any) bool {
		_, ok := payload.(*cell)
		return ok
	})
	n := &NIC{
		Node:      node,
		iface:     iface,
		prov:      pr,
		txDMA:     sim.NewResource(pr.K, node.Name+".nic.txdma", 1),
		rxDMA:     sim.NewResource(pr.K, node.Name+".nic.rxdma", 1),
		sendWork:  sim.NewChan[*Descriptor](pr.K, 0),
		txQ:       sim.NewChan[*cell](pr.K, 2),
		regions:   make(map[MemHandle]*Region),
		pendSends: make(map[uint64]*Descriptor),
		pendReads: make(map[uint64]*Descriptor),
		respGot:   make(map[uint64]int),
		reasm:     make(map[reasmKey]*reasmState),
	}
	pr.nics[node.ID] = n
	pr.K.SpawnDaemon(node.Name+".nic.send", n.sendLoop)
	pr.K.SpawnDaemon(node.Name+".nic.tx", n.txLoop)
	pr.K.SpawnDaemon(node.Name+".nic.rx", n.recvLoop)
	if m := pr.Metrics; m != nil {
		// All func-backed over counters the NIC already keeps: zero cost on
		// the data path, evaluated only at sampling instants.
		pre := "via.nic." + node.Name + "."
		m.CounterFunc(pre+"tx_bytes", func() int64 { return n.stats.BytesOut })
		m.CounterFunc(pre+"rx_bytes", func() int64 { return n.stats.BytesIn })
		m.CounterFunc(pre+"cells_out", func() int64 { return n.stats.CellsOut })
		m.CounterFunc(pre+"doorbells", func() int64 { return n.stats.SendsPosted + n.stats.RecvsPosted })
		m.GaugeFunc(pre+"pinned_regions", func() int64 { return int64(len(n.regions)) })
		m.GaugeFunc(pre+"cq_depth", func() int64 {
			var d int64
			for _, cq := range n.cqs {
				d += int64(cq.Len())
			}
			return d
		})
	}
	return n
}

// NIC returns the NIC attached to a node, or nil.
func (pr *Provider) NIC(id fabric.NodeID) *NIC { return pr.nics[id] }

// Stats returns a copy of the NIC's counters.
func (n *NIC) Stats() Stats { return n.stats }

// Provider returns the owning provider.
func (n *NIC) Provider() *Provider { return n.prov }

// Kill fail-stops the NIC: from now on it silently discards everything it
// would transmit or receive, so peers see total silence — in-flight
// messages lose their acks and outstanding calls surface as timeouts.
// A dead NIC stays dead until Revive (fault.ServerRestart).
func (n *NIC) Kill() { n.dead = true }

// Revive brings a killed NIC back: it transmits and receives again from
// now on. Everything discarded while dead is gone for good — the restart
// model is a power cycle, not a replay.
func (n *NIC) Revive() { n.dead = false }
