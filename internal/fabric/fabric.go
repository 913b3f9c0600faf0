// Package fabric simulates the System Area Network: hosts (nodes) with a
// CPU and a network port, connected through a cut-through switch.
//
// The fabric moves Frames. A frame is serialized on the sender's tx link,
// crosses the switch after WireLatency, and is queued in-order at the
// destination node, where the owner of the node's interface (a VIA NIC, or
// the kernel stack driver for the NFS baseline) consumes it and pays
// receive-side costs. Per-link serialization plus the per-node in-order
// queue make N-to-1 congestion (the scaling experiments) emerge naturally:
// many senders can serialize in parallel on their own tx links, but a
// single receiver drains one frame at a time at link rate.
package fabric

import (
	"fmt"

	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// NodeID identifies a host on the fabric.
type NodeID int

// Frame is one unit of transfer on a link (a VIA cell or an Ethernet-like
// packet). Bytes is the wire size including headers; Payload is the typed
// content interpreted by the receiving interface owner.
type Frame struct {
	Src, Dst NodeID
	Bytes    int
	Payload  any
}

// Fabric is the switch plus all attached nodes.
type Fabric struct {
	K     *sim.Kernel
	Prof  *model.Profile
	nodes []*Node

	// freeDeliv pools in-flight frame deliveries: each carries a reusable
	// kernel event bound once to its own deliver action, so the per-frame
	// wire-latency timer allocates nothing in steady state.
	freeDeliv *delivery

	bytesSent int64 // cumulative bytes on the wire
}

// delivery is one frame crossing the switch; it is recycled when the frame
// lands in the destination's receive queue.
type delivery struct {
	fab  *Fabric
	fr   Frame
	dst  *Node
	ev   *sim.Event
	next *delivery // free-list link
}

// deliver hands the frame to the destination's matching interface and
// returns the carrier to the pool.
func (d *delivery) deliver() {
	fr, dst, f := d.fr, d.dst, d.fab
	d.fr.Payload = nil // do not retain the payload through the pool
	d.dst = nil
	d.next = f.freeDeliv
	f.freeDeliv = d
	for _, ifc := range dst.ifaces {
		if ifc.match(fr.Payload) {
			if !ifc.q.TrySend(fr) {
				panic("fabric: unbounded queue refused frame")
			}
			return
		}
	}
	// No claimant: dropped on the floor.
}

// New creates an empty fabric. The profile must be valid.
func New(k *sim.Kernel, prof *model.Profile) *Fabric {
	if bad := prof.Validate(); len(bad) != 0 {
		panic(fmt.Sprintf("fabric: invalid profile %q: %v", prof.Name, bad))
	}
	return &Fabric{K: k, Prof: prof}
}

// Node is a host: one CPU resource and one full-duplex network port shared
// by the interface drivers claimed on it.
type Node struct {
	ID   NodeID
	Name string

	// CPU is the host processor; all software costs on this host are
	// charged here, so its BusyTime is the host CPU load.
	CPU *sim.Resource

	fab    *Fabric
	txLink *sim.Resource
	rxLink *sim.Resource
	ifaces []*Iface
}

// Iface is one driver's claim on a node's port: arriving frames are
// demultiplexed to the first interface whose match accepts the payload
// (a VIA NIC matches its cells, the kernel stack its packets), modeling
// protocol dispatch on a shared physical port.
type Iface struct {
	Owner string

	node  *Node
	match func(payload any) bool
	q     *sim.Chan[Frame]
}

// AddNode creates a host attached to the fabric.
func (f *Fabric) AddNode(name string) *Node {
	n := &Node{
		ID:     NodeID(len(f.nodes)),
		Name:   name,
		fab:    f,
		CPU:    sim.NewResource(f.K, f.Prof.CPUCores),
		txLink: sim.NewResource(f.K, 1),
		rxLink: sim.NewResource(f.K, 1),
	}
	f.nodes = append(f.nodes, n)
	return n
}

// BytesSent reports the cumulative bytes on the wire.
func (f *Fabric) BytesSent() int64 { return f.bytesSent }

// Claim registers a driver on the node's port. match selects the frame
// payloads this driver consumes; an owner name may be claimed only once per
// node. Frames no claimed interface matches are dropped.
func (n *Node) Claim(owner string, match func(payload any) bool) *Iface {
	for _, ifc := range n.ifaces {
		if ifc.Owner == owner {
			panic(fmt.Sprintf("fabric: node %s interface %q claimed twice", n.Name, owner))
		}
	}
	ifc := &Iface{Owner: owner, node: n, match: match, q: sim.NewChan[Frame](n.fab.K, 0)}
	n.ifaces = append(n.ifaces, ifc)
	return ifc
}

// Send transmits a frame from this node: it serializes on the tx link in
// the caller's (driver) process, then delivers to the destination's receive
// queue after the wire latency. Frames between a given pair arrive in the
// order sent. An engine takes the same steps without blocking: ClaimTx,
// LinkTime of serialization, Transmit.
func (n *Node) Send(p *sim.Proc, fr Frame) {
	n.txLink.Use(p, 1, n.LinkTime(fr.Bytes))
	n.put(fr)
}

// ClaimTx is Send's first step for an engine: it queues p for the transmit
// link and reports whether p holds it now; otherwise the grant steps p
// holding it.
func (n *Node) ClaimTx(p *sim.Proc) bool { return n.txLink.Claim(p, 1) }

// LinkTime is how long a frame of the given wire size occupies a link.
func (n *Node) LinkTime(bytes int) sim.Time {
	return sim.TransferTime(int64(bytes), n.fab.Prof.LinkBandwidth)
}

// Transmit is Send's last step: the caller has held the transmit link for
// the frame's LinkTime. It releases the link and puts the frame on the
// wire.
func (n *Node) Transmit(fr Frame) {
	n.txLink.Release(1)
	n.put(fr)
}

// put puts a frame on the wire, to land in the destination's receive
// queue after the wire latency.
func (n *Node) put(fr Frame) {
	if fr.Bytes <= 0 {
		panic("fabric: frame with non-positive size")
	}
	if int(fr.Dst) < 0 || int(fr.Dst) >= len(n.fab.nodes) {
		panic("fabric: bad destination node")
	}
	fr.Src = n.ID
	f := n.fab
	f.bytesSent += int64(fr.Bytes)
	d := f.freeDeliv
	if d != nil {
		f.freeDeliv = d.next
		d.next = nil
	} else {
		d = &delivery{fab: f}
		d.ev = f.K.NewEvent(d.deliver)
	}
	d.fr = fr
	d.dst = f.nodes[int(fr.Dst)]
	f.K.AfterEvent(d.ev, f.Prof.WireLatency)
}

// Recv blocks the driver process until a frame for this interface is
// available, then pays the receive-link serialization for it (cut-through:
// the rx link is busy while the frame's tail arrives). ok is false if the
// queue was closed. An engine takes the same steps without blocking: Poll,
// ClaimRx, LinkTime of serialization, Received.
func (i *Iface) Recv(p *sim.Proc) (Frame, bool) {
	fr, ok := i.q.Recv(p)
	if !ok {
		return Frame{}, false
	}
	n := i.node
	n.rxLink.Use(p, 1, n.LinkTime(fr.Bytes))
	return fr, true
}

// Poll is Recv's first step for an engine: it takes the next frame, or
// enlists p so that the next arrival steps it, and reports false.
func (i *Iface) Poll(p *sim.Proc) (Frame, bool) { return i.q.Poll(p) }

// ClaimRx is Recv's second step: it queues p for the receive link and
// reports whether p holds it now; otherwise the grant steps p holding it.
func (i *Iface) ClaimRx(p *sim.Proc) bool { return i.node.rxLink.Claim(p, 1) }

// Received is Recv's last step: the frame's tail is in, one LinkTime after
// the claim, and the receive link is released.
func (i *Iface) Received() { i.node.rxLink.Release(1) }

// Profile returns the fabric's cost model.
func (n *Node) Profile() *model.Profile { return n.fab.Prof }

// Compute charges d of CPU time to this host in the calling process.
func (n *Node) Compute(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	n.CPU.Use(p, 1, d)
}

// CopyMem charges the CPU time to copy nbytes through this host's memory
// system (the cost kernel-path I/O pays per copy).
func (n *Node) CopyMem(p *sim.Proc, nbytes int) {
	n.Compute(p, n.fab.Prof.CopyTime(nbytes))
}

// String implements fmt.Stringer.
func (n *Node) String() string { return fmt.Sprintf("node(%d,%s)", n.ID, n.Name) }
