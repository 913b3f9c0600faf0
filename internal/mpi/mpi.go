// Package mpi is a minimal MPI runtime for the simulation: ranks are
// simulated processes, point-to-point messaging runs over VIA (sharing each
// node's NIC with the DAFS client, the way MVICH-era MPI implementations
// shared the SAN), and the collectives needed by two-phase collective I/O
// are built on top.
//
// The transport follows the classic two-protocol design:
//
//   - Eager (small messages): the payload is copied through pre-registered
//     bounce buffers on both sides — one CPU copy per end.
//   - Rendezvous (large messages): the sender registers the user buffer and
//     sends a ready-to-send control message; the receiver registers its own
//     buffer, RDMA-reads the payload directly, and returns a FIN. Zero
//     copies, at the price of registration costs (amortizable).
//
// Flow control uses per-pair credits. Credit return is modeled as free
// (piggybacked), which is the one deliberate simplification; everything
// else — envelopes, matching with unexpected queues, wildcard receives,
// non-overtaking order — is implemented.
//
// A message allocates nothing on the host. Each bounce slot embeds the
// descriptor posted over it, and its completion context is the slot
// itself. Requests (Isend), receives, rendezvous pulls and the sends
// waiting for a FIN are records from the rank's free lists, each with its
// future embedded and its proc body bound once, when the record is made;
// the procs they spawn carry names the rank built once. Wait gives a
// request back, so a request is waited once. An eager message that
// arrives before its receive is kept in a pooled envelope, its payload
// copied into a buffer of the provider's size-classed pool
// (via.Provider.TakeBuf) and given back when a receive takes it.
//
// A receive can take its buffer from the message: the eager envelope and
// the RTS carry the payload's size, and the all-to-alls' receives ask
// their caller for a buffer of that size when the message matches, so no
// size message goes ahead of a payload. AlltoallvStream runs one pairwise
// step at a time; Alltoallv posts every receive before any send, as
// MPICH's exchange does, so a rank pulls from all its peers at once.
//
// Messages and collectives run on a communicator (Comm): every rank of the
// world in a context of its own, carried in each envelope. A message
// matches only receives of its context, and each communicator numbers its
// collectives itself, so collectives on different communicators may be in flight on
// one rank at once; on one communicator a rank runs one collective at a
// time, as MPI requires. A Rank embeds its world communicator, and Dup
// makes more (MPI-IO gives each open file one). Collectives use tags above
// every application tag, which AnyTag does not match, so a wildcard
// receive never takes a collective's message. Allgather, the equal-count
// MPI_Allgather, is posted whole like Alltoallv: one round of n-1
// messages. What it and AllgatherU64 return lives in a buffer of the
// communicator's own, valid until its next collective: read it at once
// or copy it.
package mpi

import (
	"fmt"

	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Tag space: application tags stay below collTagBase, and collectives use
// the tags above it, which AnyTag does not match.
const collTagBase = 1 << 20

// eagerCredits is a pair's send and receive slot count, a power of two:
// the send pool is a sim.Chan ring over a room of that length.
const (
	eagerCredits = 16
	envLen       = 32
)

// eagerMax is the largest payload sent through bounce buffers; larger
// messages use rendezvous. connectPair sizes every bounce slot for it.
const eagerMax = 16 * 1024

// message kinds on the wire.
const (
	kEager uint8 = iota
	kRTS
	kFIN
)

// World is a set of ranks with all-to-all connectivity.
type World struct {
	k     *sim.Kernel
	prof  *model.Profile
	ranks []*Rank
}

// NewWorld builds a world with one rank per NIC and connects every pair.
// MPI-internal bounce pools are pre-registered (MPI_Init behavior), so
// world construction itself is cost-free in virtual time.
func NewWorld(nics []*via.NIC) *World {
	if len(nics) == 0 {
		panic("mpi: empty world")
	}
	prov := nics[0].Provider()
	w := &World{k: prov.K, prof: prov.Prof}
	for i, nic := range nics {
		r := &Rank{
			world: w, id: i, nic: nic,
			pairs:     make(map[int]*pair),
			isendName: fmt.Sprintf("mpi.rank%d.isend", i),
			pullName:  fmt.Sprintf("mpi.rank%d.pull", i),
		}
		r.Comm.r = r
		r.cq = nic.NewNotifyCQ(fmt.Sprintf("%s.mpi.cq", nic.Node.Name), r.progress)
		w.ranks = append(w.ranks, r)
	}
	for i := range w.ranks {
		for j := i + 1; j < len(w.ranks); j++ {
			connectPair(w.ranks[i], w.ranks[j])
		}
	}
	return w
}

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// slot is one bounce buffer: a slot of a registered ring, whose bytes exist
// only while a message does, and only as many as it needs, with the
// descriptor that sends from it or is posted over it. The descriptor's
// context is the slot itself, so progress recycles the slot from its
// completion, and it is rewritten only once that completion is handled.
type slot struct {
	reg  *via.Region
	i    int
	pr   *pair
	desc via.Descriptor
}

// bytes returns the slot's bytes, at least n of them: a message's
// envelope and payload.
func (s *slot) bytes(n int) []byte { return s.reg.Grow(s.i, n) }

// release clears the first n bytes, the most the slot's message wrote, and
// gives the slot's bytes back.
func (s *slot) release(n int) { s.reg.Release(s.i, n) }

// pair is one direction-agnostic endpoint of a rank-to-rank connection.
type pair struct {
	vi       *via.VI
	credits  sim.Credits     // sender-side credits toward this peer
	back     *sim.Credits    // the peer's credits toward this rank, returned on consumption
	sendPool sim.Chan[*slot] // free send bounce slots

	// The bounce rings, registered into records the pair owns, with their
	// slot tables, slots and the send pool's room.
	sendReg, recvReg     via.Region
	sendTable, recvTable [eagerCredits][]byte
	sendSlots, recvSlots [eagerCredits]slot
	sendIdle             [eagerCredits]*slot
}

// Rank is one MPI process endpoint. All methods must be called from the
// rank's own simulated process (or helpers it spawned on the same node).
// Its messages and collectives are those of its world communicator, the
// embedded Comm.
type Rank struct {
	Comm

	world *World
	id    int
	nic   *via.NIC
	cq    *via.CQ
	pairs map[int]*pair

	posted     []*recv
	unexpected []*envelope
	rndvSeq    uint64
	fins       []*recv // rendezvous sends waiting for their FIN
	ctxs       uint32  // the last context Dup handed out

	// The free lists and the names of the procs Isend and a posted
	// receive's pull spawn.
	freeReqs            *Req
	freeRecvs           *recv
	freeEnvs            *envelope
	isendName, pullName string
}

// Comm is a rank's end of a communicator: every rank of the world, in a
// context of its own. A message sent on it matches only receives posted on
// it, and it numbers its collectives itself, so two communicators'
// collectives may run at once on one rank, each in a proc of its own. On
// one communicator a rank runs one collective at a time, and every rank
// runs them in the same order.
type Comm struct {
	r   *Rank
	ctx uint32 // 0: the world communicator
	seq int    // collective sequence, advancing identically on every rank

	// What Allgather and AllgatherU64 return, valid until the next
	// collective, and val, the integer AllgatherU64 and BcastU64 send: a
	// message's buffer escapes the call that sends it, so it lives here
	// rather than on a stack.
	gather []byte
	u64s   []uint64
	val    [8]byte

	// A posted exchange's receives and its sends, in step order.
	posts []*recv
	sends []*Req
}

// Dup makes c a new communicator over r's world, with a context of its own
// (MPI_Comm_dup). It sends no message: like a collective, it must be
// called by every rank in the same order, so the contexts agree.
func (r *Rank) Dup(c *Comm) {
	r.ctxs++
	*c = Comm{r: r, ctx: r.ctxs}
}

// recv is the record behind a wait on the message path. As a receive it
// is posted for progress to match (ctx, src, tag, buf) and resolved through
// done, or holds in env the eager message or RTS that arrived before it;
// when into is set, buf is what into returns for the matched message's
// size. Its rendezvous pull reads into buf with the RDMA descriptor read,
// whose completion lands in readDone, in the receiving proc for an RTS
// that arrived first or in a proc of its own, run, for an RTS that found
// the receive posted (rts keeps that RTS), which carries traceCtx, the
// trace context of the proc that made the receive. As a rendezvous send
// it waits on done for the FIN that carries its token.
type recv struct {
	r        *Rank
	ctx      uint32
	src, tag int
	buf      []byte
	into     func(src, n int) []byte
	env      *envelope
	done     sim.Future[RecvStatus]
	rts      envelope
	read     via.Descriptor
	readDone sim.Future[via.Completion]
	token    uint64
	traceCtx uint64
	run      func(p *sim.Proc) // q.pullPosted
	next     *recv
}

// envelope is a decoded incoming message awaiting a matching receive.
type envelope struct {
	kind  uint8
	ctx   uint32
	src   int
	tag   int
	size  int
	token uint64
	// eager payload (owned copy)
	data []byte
	// rendezvous source memory
	handle via.MemHandle
	offset int

	next *envelope // free-list link
}

// RecvStatus reports a completed receive.
type RecvStatus struct {
	Source int
	Tag    int
	Count  int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// NIC returns the rank's VIA NIC.
func (r *Rank) NIC() *via.NIC { return r.nic }

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.world }

// Kernel returns the simulation kernel.
func (w *World) Kernel() *sim.Kernel { return w.k }

// slotSize is the bounce buffer size (envelope + eager payload).
func (w *World) slotSize() int { return envLen + eagerMax }

// connectPair wires VIs and bounce pools between two ranks.
func connectPair(a, b *Rank) {
	w := a.world
	viA := a.nic.NewVI(a.cq, a.cq)
	viB := b.nic.NewVI(b.cq, b.cq)
	via.Connect(viA, viB)
	mk := func(r *Rank, vi *via.VI, peer int) *pair {
		pr := &pair{vi: vi}
		pr.credits.Init(w.k, eagerCredits)
		pr.sendPool.Init(w.k, 0, pr.sendIdle[:])
		ss := w.slotSize()
		r.nic.RegisterCachedRing(&pr.sendReg, pr.sendTable[:], ss)
		r.nic.RegisterCachedRing(&pr.recvReg, pr.recvTable[:], ss)
		for i := 0; i < eagerCredits; i++ {
			qs, rs := &pr.sendSlots[i], &pr.recvSlots[i]
			*qs, *rs = slot{reg: &pr.sendReg, i: i, pr: pr}, slot{reg: &pr.recvReg, i: i, pr: pr}
			pr.sendPool.TrySend(qs)
			rs.desc = via.Descriptor{Region: &pr.recvReg, Offset: i * ss, Len: ss, Ctx: rs}
			if err := vi.PrepostRecv(&rs.desc); err != nil {
				panic(err)
			}
		}
		r.pairs[peer] = pr
		return pr
	}
	pa, pb := mk(a, viA, b.id), mk(b, viB, a.id)
	pa.back, pb.back = &pb.credits, &pa.credits
}
