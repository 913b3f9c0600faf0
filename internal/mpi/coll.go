package mpi

import (
	"encoding/binary"
	"slices"

	"dafsio/internal/sim"
)

// Collective operations. Every rank of the world must call each collective
// of a communicator, and all ranks must call them in the same order (the
// standard MPI usage discipline): matching relies on the communicator's
// collective sequence number, which advances identically everywhere, and
// on its context, which keeps its messages from any other communicator's.

// nextCollTag reserves a tag for one collective invocation.
func (c *Comm) nextCollTag() int {
	c.seq++
	return collTagBase + c.seq
}

// Barrier blocks until all ranks have entered it (dissemination algorithm:
// ceil(log2 n) rounds of pairwise exchanges).
func (c *Comm) Barrier(p *sim.Proc) {
	tag := c.nextCollTag()
	r, n := c.r, c.r.Size()
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		c.Sendrecv(p, dst, tag, nil, src, tag, nil)
	}
}

// Bcast distributes root's buf to every rank (binomial tree). All ranks
// must pass equally sized buffers.
func (c *Comm) Bcast(p *sim.Proc, root int, buf []byte) {
	tag := c.nextCollTag()
	r, n := c.r, c.r.Size()
	if n == 1 {
		return
	}
	vr := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (vr - mask + root) % n
			c.Recv(p, src, tag, buf)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			dst := (vr + mask + root) % n
			c.Send(p, dst, tag, buf)
		}
		mask >>= 1
	}
}

// BcastU64 broadcasts one integer from root.
func (c *Comm) BcastU64(p *sim.Proc, root int, v uint64) uint64 {
	binary.LittleEndian.PutUint64(c.val[:], v)
	c.Bcast(p, root, c.val[:])
	return binary.LittleEndian.Uint64(c.val[:])
}

// Allgather collects every rank's data on every rank (MPI_Allgather): every
// rank passes as many bytes, and rank i's land at i*len(data) of a buffer
// of the communicator's own, valid until its next collective. Each peer's
// receive is posted straight into its slot before the sends start.
func (c *Comm) Allgather(p *sim.Proc, data []byte) []byte {
	r, n, m := c.r, c.r.Size(), len(data)
	tag := c.nextCollTag()
	c.gather = slices.Grow(c.gather[:0], n*m)[:n*m]
	c.postAll(p, tag, c.gather, m, nil)
	copy(c.gather[r.id*m:], data)
	for step := 1; step < n; step++ {
		c.sends = append(c.sends, c.Isend(p, (r.id+step)%n, tag, data))
	}
	c.waitAll(p, nil)
	return c.gather
}

// AllgatherU64 collects one integer per rank on every rank, into a slice
// of the communicator's own, valid until its next collective.
func (c *Comm) AllgatherU64(p *sim.Proc, v uint64) []uint64 {
	binary.LittleEndian.PutUint64(c.val[:], v)
	all := c.Allgather(p, c.val[:])
	c.u64s = slices.Grow(c.u64s[:0], len(all)/8)
	for i := 0; i < len(all); i += 8 {
		c.u64s = append(c.u64s, binary.LittleEndian.Uint64(all[i:]))
	}
	return c.u64s
}

// ReduceOp combines two values in an Allreduce.
type ReduceOp func(a, b int64) int64

// Standard reductions.
var (
	OpSum ReduceOp = func(a, b int64) int64 { return a + b }
	OpMin ReduceOp = func(a, b int64) int64 { return min(a, b) }
	OpMax ReduceOp = func(a, b int64) int64 { return max(a, b) }
)

// AllreduceI64 combines one value per rank with op (deterministic
// rank-order fold) and returns the result on every rank.
func (c *Comm) AllreduceI64(p *sim.Proc, v int64, op ReduceOp) int64 {
	vals := c.AllgatherU64(p, uint64(v))
	acc := int64(vals[0])
	for _, u := range vals[1:] {
		acc = op(acc, int64(u))
	}
	return acc
}

// AlltoallvBytes sends send[i] to rank i and returns what each rank sent to
// this one (recv[j] came from rank j). It is Alltoallv receiving into
// fresh buffers, with the own payload copied (and the copy charged) once
// every send is started.
func (c *Comm) AlltoallvBytes(p *sim.Proc, send [][]byte) [][]byte {
	r, n := c.r, c.r.Size()
	if len(send) != n {
		panic("mpi: AlltoallvBytes needs one buffer per rank")
	}
	recv := make([][]byte, n)
	c.Alltoallv(p, func(dst int) []byte { return send[dst] }, func(_, n int) []byte { return make([]byte, n) }, func(src int, data []byte) {
		if src == r.id {
			data = append([]byte(nil), data...)
			if len(data) > 0 {
				r.nic.Node.CopyMem(p, len(data))
			}
		}
		recv[src] = data
	})
	return recv
}

// The two personalized all-to-alls share their steps and callbacks. Step 0
// is this rank's own payload; step k (1 ≤ k < n) sends to rank id+k and
// receives from rank id-k (mod n). send(dst) produces the payload for dst;
// into(src, n) returns the buffer, at least n bytes long, that src's
// n-byte payload is received into, called when the payload's envelope
// matches its receive (the eager message and the RTS carry the size, so
// no size message precedes a payload); and recv(src, data) is handed that
// buffer cut to n. The own payload is handed to recv as send returned it,
// uncopied, and into is not asked for it. into may be called from the
// rank's progress engine, so it must not park, and it is held until the
// exchange ends: a func value bound once, not a closure made per call,
// keeps the exchange from allocating.

// AlltoallvStream is the personalized all-to-all handed over one step at a
// time, so a caller can act on each source's payload while the later steps
// are still in flight: step k calls send(id+k), exchanges, and calls
// recv(id-k) as it completes, before step k+1 starts.
func (c *Comm) AlltoallvStream(p *sim.Proc, send func(dst int) []byte, into func(src, n int) []byte, recv func(src int, data []byte)) {
	r, n := c.r, c.r.Size()
	tag := c.nextCollTag()
	recv(r.id, send(r.id))
	for step := 1; step < n; step++ {
		dst := (r.id + step) % n
		src := (r.id - step + n) % n
		sreq := c.Isend(p, dst, tag, send(dst))
		_, data := c.irecv(p, src, tag, nil, into).wait(p)
		sreq.Wait(p)
		recv(src, data)
	}
}

// Alltoallv is the personalized all-to-all posted whole, as MPICH's and
// ROMIO's exchange is: it posts every step's receive, then starts each
// step's send in step order as send(dst) produces it, then hands each
// payload to recv in step order, and returns once every send is done.
// Every peer's message that arrives once its receive is posted is matched
// at once, each rendezvous pull in a proc of its own, so the pulls from
// all peers overlap, and a send(dst) that parks delays only the sends
// after it, never a receive.
func (c *Comm) Alltoallv(p *sim.Proc, send func(dst int) []byte, into func(src, n int) []byte, recv func(src int, data []byte)) {
	r, n := c.r, c.r.Size()
	tag := c.nextCollTag()
	c.postAll(p, tag, nil, 0, into)
	own := send(r.id)
	for step := 1; step < n; step++ {
		dst := (r.id + step) % n
		c.sends = append(c.sends, c.Isend(p, dst, tag, send(dst)))
	}
	recv(r.id, own)
	c.waitAll(p, recv)
}

// postAll posts the receive from every peer of a posted exchange, in step
// order (step k receives from rank id-k): into src's m-byte slot of buf
// or, when into is set (buf nil, m 0), into the buffer into gives src's
// message. The caller then appends its sends to c.sends and ends with
// waitAll.
func (c *Comm) postAll(p *sim.Proc, tag int, buf []byte, m int, into func(src, n int) []byte) {
	r, n := c.r, c.r.Size()
	for step := 1; step < n; step++ {
		src := (r.id - step + n) % n
		c.posts = append(c.posts, c.irecv(p, src, tag, buf[src*m:(src+1)*m], into))
	}
}

// waitAll waits for postAll's receives in step order, handing each
// payload to recv when it is set, then for every send.
func (c *Comm) waitAll(p *sim.Proc, recv func(src int, data []byte)) {
	r, n := c.r, c.r.Size()
	for i, q := range c.posts {
		_, data := q.wait(p)
		if recv != nil {
			recv((r.id-i-1+n)%n, data)
		}
	}
	for _, req := range c.sends {
		req.Wait(p)
	}
	clear(c.posts)
	clear(c.sends)
	c.posts, c.sends = c.posts[:0], c.sends[:0]
}
