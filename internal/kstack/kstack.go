// Package kstack simulates the traditional kernel datagram path the NFS
// baseline rides on: sockets, syscalls, user/kernel copies, MTU
// fragmentation, per-packet protocol processing, and receive interrupts —
// everything VIA's OS-bypass design eliminates.
//
// The stack uses the same fabric links as VIA, so DAFS-vs-NFS comparisons
// share identical wire characteristics and differ only in software path,
// exactly the comparison the paper makes. Datagram delivery is reliable and
// in order (the SAN does not drop frames), so no retransmission machinery
// is modeled; real-era NFS/UDP on a healthy LAN behaved the same way.
package kstack

import (
	"fmt"

	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// MaxDatagram is the largest datagram the stack accepts (UDP-like limit).
const MaxDatagram = 63 * 1024

// pktHeader is the per-packet wire overhead (Ethernet+IP+UDP+fragment
// header, rounded).
const pktHeader = 42

// Datagram is a received message.
type Datagram struct {
	Src     fabric.NodeID
	SrcPort uint16
	Data    []byte
}

// packet is one MTU-sized fragment on the fabric.
//
// Packets are recycled with their payload buffer. A packet has one owner at
// a time: the sending stack from SendTo until the frame reaches the
// destination, then the receiving stack's rxDriver, which copies the payload
// into reassembly and hands the packet back to its sender (freePkt).
type packet struct {
	owner            *Stack
	dst              fabric.NodeID
	srcPort, dstPort uint16
	msgID            uint64
	off, total       int
	data             []byte // len is this fragment, cap the stack's MTU payload
}

// Stack is one host's kernel network stack.
type Stack struct {
	Node *fabric.Node

	iface   *fabric.Iface
	prof    *model.Profile
	k       *sim.Kernel
	mtuData int // IP payload bytes per packet

	sockets  map[uint16]*Socket
	nextPort uint16
	txQ      *sim.Chan[*packet]
	msgSeq   uint64
	reasm    map[reasmKey]*reasmBuf

	freePkts []*packet   // idle packets this stack sends
	freeBufs []*reasmBuf // idle reassembly buffers

	// Stats.
	PktsOut, PktsIn int64
}

type reasmKey struct {
	src   fabric.NodeID
	msgID uint64
}

// reasmBuf is one datagram being reassembled, then queued on its socket.
// It never leaves the stack: Recv copies the datagram out and frees it.
type reasmBuf struct {
	data    []byte // len is the datagram, cap MaxDatagram
	got     int
	src     fabric.NodeID
	srcPort uint16
	dstPort uint16
}

// New attaches a kernel stack to the node (claiming the packet share of its
// interface) and starts the transmit and receive drivers.
func New(node *fabric.Node, prof *model.Profile, k *sim.Kernel) *Stack {
	iface := node.Claim("kstack", func(payload any) bool {
		_, ok := payload.(*packet)
		return ok
	})
	mtuData := prof.EthMTU - (pktHeader - 14) // IP payload space
	if mtuData <= 0 {
		mtuData = 512
	}
	s := &Stack{
		Node:     node,
		iface:    iface,
		prof:     prof,
		k:        k,
		mtuData:  mtuData,
		sockets:  make(map[uint16]*Socket),
		nextPort: 49152,
		txQ:      sim.NewChan[*packet](k, 64), // device queue w/ backpressure
		reasm:    make(map[reasmKey]*reasmBuf),
	}
	k.SpawnDaemon(node.Name+".kstack.tx", s.txDriver)
	k.SpawnDaemon(node.Name+".kstack.rx", s.rxDriver)
	return s
}

// Socket binds a datagram socket. port 0 picks an ephemeral port.
func (s *Stack) Socket(port uint16) (*Socket, error) {
	if port == 0 {
		for s.sockets[s.nextPort] != nil {
			s.nextPort++
		}
		port = s.nextPort
		s.nextPort++
	}
	if s.sockets[port] != nil {
		return nil, fmt.Errorf("kstack: port %d in use", port)
	}
	sock := &Socket{stack: s, port: port, inQ: sim.NewChan[*reasmBuf](s.k, 0)}
	s.sockets[port] = sock
	return sock, nil
}

// newPkt returns an idle packet with room for nb bytes.
func (s *Stack) newPkt(nb int) *packet {
	var pk *packet
	if n := len(s.freePkts); n > 0 {
		pk = s.freePkts[n-1]
		s.freePkts = s.freePkts[:n-1]
	} else {
		pk = &packet{owner: s, data: make([]byte, 0, s.mtuData)}
	}
	pk.data = pk.data[:nb]
	return pk
}

// freePkt takes back a packet this stack sent once nobody references it.
func (s *Stack) freePkt(pk *packet) { s.freePkts = append(s.freePkts, pk) }

// newBuf returns an idle reassembly buffer sized to a datagram of total
// bytes.
func (s *Stack) newBuf(total int) *reasmBuf {
	var rb *reasmBuf
	if n := len(s.freeBufs); n > 0 {
		rb = s.freeBufs[n-1]
		s.freeBufs = s.freeBufs[:n-1]
	} else {
		rb = &reasmBuf{data: make([]byte, 0, MaxDatagram)}
	}
	rb.data, rb.got = rb.data[:total], 0
	return rb
}

// freeBuf takes back a reassembly buffer whose datagram has been copied out
// or dropped.
func (s *Stack) freeBuf(rb *reasmBuf) { s.freeBufs = append(s.freeBufs, rb) }

// Socket is a bound datagram endpoint.
type Socket struct {
	stack  *Stack
	port   uint16
	inQ    *sim.Chan[*reasmBuf]
	closed bool
}

// Port returns the bound port.
func (sock *Socket) Port() uint16 { return sock.port }

// Close unbinds the socket; queued datagrams are dropped.
func (sock *Socket) Close() {
	if sock.closed {
		return
	}
	sock.closed = true
	delete(sock.stack.sockets, sock.port)
	sock.inQ.Close()
}

// SendTo transmits data as one datagram. The calling process pays the full
// kernel transmit path: syscall, user-to-kernel copy, and per-packet
// protocol processing; the device driver then serializes the fragments onto
// the link asynchronously.
func (sock *Socket) SendTo(p *sim.Proc, dst fabric.NodeID, dstPort uint16, data []byte) error {
	if sock.closed {
		return fmt.Errorf("kstack: socket closed")
	}
	if len(data) > MaxDatagram {
		return fmt.Errorf("kstack: datagram too large (%d)", len(data))
	}
	s := sock.stack
	s.Node.Compute(p, s.prof.SyscallCost)
	s.Node.CopyMem(p, len(data)) // user -> kernel socket buffer
	s.msgSeq++
	msgID := s.msgSeq
	sent := 0
	for {
		nb := min(s.mtuData, len(data)-sent)
		s.Node.Compute(p, s.prof.PktCost) // IP/UDP+driver per packet
		pk := s.newPkt(nb)
		copy(pk.data, data[sent:sent+nb])
		pk.dst, pk.srcPort, pk.dstPort = dst, sock.port, dstPort
		pk.msgID, pk.off, pk.total = msgID, sent, len(data)
		s.txQ.Send(p, pk)
		s.PktsOut++
		sent += nb
		if sent >= len(data) {
			return nil
		}
	}
}

// Recv blocks for the next datagram and returns it in a buffer of its own
// (RecvFrom with a nil buf). ok is false once the socket is closed.
func (sock *Socket) Recv(p *sim.Proc) (Datagram, bool) { return sock.RecvFrom(p, nil) }

// RecvFrom is recvfrom(2): it blocks for the next datagram and pays the
// receive syscall plus the kernel-to-user copy into buf. The datagram is
// truncated to len(buf), and the returned Data aliases buf; a nil buf gets
// a fresh one of the datagram's size. ok is false once the socket is
// closed. The reassembly buffer goes back to the stack as soon as it is
// copied out, before the receive charges yield.
func (sock *Socket) RecvFrom(p *sim.Proc, buf []byte) (Datagram, bool) {
	s := sock.stack
	s.Node.Compute(p, s.prof.SyscallCost)
	rb, ok := sock.inQ.Recv(p)
	if !ok {
		return Datagram{}, false
	}
	if buf == nil {
		buf = make([]byte, len(rb.data))
	}
	n := copy(buf, rb.data)
	dg := Datagram{Src: rb.src, SrcPort: rb.srcPort, Data: buf[:n]}
	s.freeBuf(rb)
	s.Node.Compute(p, s.prof.WakeupLatency)
	s.Node.CopyMem(p, n) // kernel -> user
	return dg, true
}

// txDriver moves queued fragments onto the wire.
func (s *Stack) txDriver(p *sim.Proc) {
	for {
		pk, ok := s.txQ.Recv(p)
		if !ok {
			return
		}
		s.Node.Send(p, fabric.Frame{Dst: pk.dst, Bytes: len(pk.data) + pktHeader, Payload: pk})
	}
}

// rxDriver takes interrupts for arriving packets, runs protocol processing,
// reassembles datagrams, and queues them on the destination socket.
func (s *Stack) rxDriver(p *sim.Proc) {
	for {
		fr, ok := s.iface.Recv(p)
		if !ok {
			return
		}
		pk := fr.Payload.(*packet)
		s.PktsIn++
		// Interrupt + protocol processing, charged to this host's CPU.
		s.Node.Compute(p, s.prof.InterruptCost+s.prof.PktCost)
		key := reasmKey{src: fr.Src, msgID: pk.msgID}
		rb := s.reasm[key]
		if rb == nil {
			rb = s.newBuf(pk.total)
			rb.src, rb.srcPort, rb.dstPort = fr.Src, pk.srcPort, pk.dstPort
			s.reasm[key] = rb
		}
		copy(rb.data[pk.off:], pk.data)
		rb.got += len(pk.data)
		pk.owner.freePkt(pk)
		if rb.got < len(rb.data) {
			continue
		}
		delete(s.reasm, key)
		sock := s.sockets[rb.dstPort]
		if sock == nil {
			s.freeBuf(rb) // no listener: drop
			continue
		}
		sock.inQ.Send(p, rb)
	}
}
