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

// Tag space: application tags must stay below reservedTagBase; ReserveTags
// hands out blocks in [reservedTagBase, collTagBase) for library services
// (e.g. MPI-IO shared file pointers), and collectives use tags above
// collTagBase.
const (
	reservedTagBase = 1 << 19
	collTagBase     = 1 << 20
)

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

	reservedTags int
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
			pairs: make(map[int]*pair),
			fins:  make(map[uint64]*sim.Future[struct{}]),
		}
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

// ReserveTags returns the base of a block of n previously unused service
// tags. The caller must ensure a single rank allocates and distributes the
// value (the usual pattern: rank 0 reserves, then broadcasts).
func (w *World) ReserveTags(n int) int {
	if n <= 0 {
		panic("mpi: ReserveTags needs n > 0")
	}
	base := reservedTagBase + w.reservedTags
	w.reservedTags += n
	if base+n > collTagBase {
		panic("mpi: service tag space exhausted")
	}
	return base
}

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// slot is one bounce buffer: a slot of a registered ring, whose bytes exist
// only while a message does, and only as many as it needs.
type slot struct {
	reg *via.Region
	i   int
}

// bytes returns the slot's bytes, at least n of them: a message's
// envelope and payload.
func (s *slot) bytes(n int) []byte { return s.reg.Grow(s.i, n) }

// release clears the first n bytes, the most the slot's message wrote, and
// gives the slot's bytes back.
func (s *slot) release(n int) { s.reg.Release(s.i, n) }

// pair is one direction-agnostic endpoint of a rank-to-rank connection.
type pair struct {
	peer     int
	vi       *via.VI
	credits  *sim.Resource    // sender-side credits toward this peer
	sendPool *sim.Chan[*slot] // free send bounce slots

	// The bounce rings, registered into records the pair owns, with their
	// slot tables and slots.
	sendReg, recvReg     via.Region
	sendTable, recvTable [eagerCredits][]byte
	sendSlots, recvSlots [eagerCredits]slot
}

// Rank is one MPI process endpoint. All methods must be called from the
// rank's own simulated process (or helpers it spawned on the same node).
type Rank struct {
	world *World
	id    int
	nic   *via.NIC
	cq    *via.CQ
	pairs map[int]*pair

	posted     []*postedRecv
	unexpected []*envelope
	rndvSeq    uint64
	fins       map[uint64]*sim.Future[struct{}]
	collSeq    int
}

// postedRecv is a receive waiting for a match.
type postedRecv struct {
	src, tag int
	buf      []byte
	fut      *sim.Future[RecvStatus]
}

// envelope is a decoded incoming message awaiting a matching receive.
type envelope struct {
	kind  uint8
	src   int
	tag   int
	size  int
	token uint64
	// eager payload (owned copy)
	data []byte
	// rendezvous source memory
	handle via.MemHandle
	offset int
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
	mk := func(r *Rank, vi *via.VI, peer int) {
		pr := &pair{
			peer:     peer,
			vi:       vi,
			credits:  sim.NewResource(w.k, fmt.Sprintf("mpi.%d->%d.credits", r.id, peer), eagerCredits),
			sendPool: sim.NewChan[*slot](w.k, 0),
		}
		ss := w.slotSize()
		r.nic.RegisterCachedRing(&pr.sendReg, pr.sendTable[:], ss)
		r.nic.RegisterCachedRing(&pr.recvReg, pr.recvTable[:], ss)
		for i := 0; i < eagerCredits; i++ {
			qs, rs := &pr.sendSlots[i], &pr.recvSlots[i]
			*qs, *rs = slot{reg: &pr.sendReg, i: i}, slot{reg: &pr.recvReg, i: i}
			pr.sendPool.TrySend(qs)
			if err := vi.PrepostRecv(&via.Descriptor{Region: &pr.recvReg, Offset: i * ss, Len: ss, Ctx: rs}); err != nil {
				panic(err)
			}
		}
		r.pairs[peer] = pr
	}
	mk(a, viA, b.id)
	mk(b, viB, a.id)
}
