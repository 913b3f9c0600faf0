package mpi

import (
	"encoding/binary"

	"dafsio/internal/sim"
)

// Collective operations. Every rank of the world must call each collective,
// and all ranks must call collectives in the same order (the standard MPI
// usage discipline): matching relies on a per-rank collective sequence
// number that advances identically everywhere.

// nextCollTag reserves a tag for one collective invocation.
func (r *Rank) nextCollTag() int {
	r.collSeq++
	return collTagBase + r.collSeq
}

// Barrier blocks until all ranks have entered it (dissemination algorithm:
// ceil(log2 n) rounds of pairwise exchanges).
func (r *Rank) Barrier(p *sim.Proc) {
	tag := r.nextCollTag()
	n := r.Size()
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		r.Sendrecv(p, dst, tag, nil, src, tag, nil)
	}
}

// Bcast distributes root's buf to every rank (binomial tree). All ranks
// must pass equally sized buffers.
func (r *Rank) Bcast(p *sim.Proc, root int, buf []byte) {
	tag := r.nextCollTag()
	n := r.Size()
	if n == 1 {
		return
	}
	vr := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (vr - mask + root) % n
			r.Recv(p, src, tag, buf)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			dst := (vr + mask + root) % n
			r.Send(p, dst, tag, buf)
		}
		mask >>= 1
	}
}

// BcastU64 broadcasts one integer from root.
func (r *Rank) BcastU64(p *sim.Proc, root int, v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	r.Bcast(p, root, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// GatherBytes collects each rank's (variable-size) blob at root. Root gets
// a slice indexed by rank; other ranks get nil.
func (r *Rank) GatherBytes(p *sim.Proc, root int, data []byte) [][]byte {
	sizeTag := r.nextCollTag()
	dataTag := r.nextCollTag()
	n := r.Size()
	if r.id != root {
		var szb [8]byte
		binary.LittleEndian.PutUint64(szb[:], uint64(len(data)))
		r.Send(p, root, sizeTag, szb[:])
		r.Send(p, root, dataTag, data)
		return nil
	}
	out := make([][]byte, n)
	out[root] = append([]byte(nil), data...)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		var szb [8]byte
		r.Recv(p, i, sizeTag, szb[:])
		sz := binary.LittleEndian.Uint64(szb[:])
		buf := make([]byte, sz)
		r.Recv(p, i, dataTag, buf)
		out[i] = buf
	}
	return out
}

// AllgatherBytes collects every rank's blob on every rank (gather at rank 0
// followed by a broadcast of the flattened result).
func (r *Rank) AllgatherBytes(p *sim.Proc, data []byte) [][]byte {
	n := r.Size()
	parts := r.GatherBytes(p, 0, data)
	// Flatten at root, broadcast length then content.
	var flat []byte
	if r.id == 0 {
		for _, part := range parts {
			var szb [8]byte
			binary.LittleEndian.PutUint64(szb[:], uint64(len(part)))
			flat = append(flat, szb[:]...)
			flat = append(flat, part...)
		}
	}
	total := r.BcastU64(p, 0, uint64(len(flat)))
	if r.id != 0 {
		flat = make([]byte, total)
	}
	r.Bcast(p, 0, flat)
	out := make([][]byte, n)
	off := 0
	for i := 0; i < n; i++ {
		sz := int(binary.LittleEndian.Uint64(flat[off : off+8]))
		off += 8
		out[i] = append([]byte(nil), flat[off:off+sz]...)
		off += sz
	}
	return out
}

// AllgatherU64 collects one integer per rank on every rank.
func (r *Rank) AllgatherU64(p *sim.Proc, v uint64) []uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	parts := r.AllgatherBytes(p, b[:])
	out := make([]uint64, len(parts))
	for i, part := range parts {
		out[i] = binary.LittleEndian.Uint64(part)
	}
	return out
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
func (r *Rank) AllreduceI64(p *sim.Proc, v int64, op ReduceOp) int64 {
	vals := r.AllgatherU64(p, uint64(v))
	acc := int64(vals[0])
	for _, u := range vals[1:] {
		acc = op(acc, int64(u))
	}
	return acc
}

// AlltoallvBytes sends send[i] to rank i and returns what each rank sent to
// this one (recv[j] came from rank j). It is AlltoallvStream receiving into
// fresh buffers, with the own payload copied (and the copy charged) before
// the first exchange.
func (r *Rank) AlltoallvBytes(p *sim.Proc, send [][]byte) [][]byte {
	n := r.Size()
	if len(send) != n {
		panic("mpi: AlltoallvBytes needs one buffer per rank")
	}
	recv := make([][]byte, n)
	r.AlltoallvStream(p, func(dst int) []byte { return send[dst] }, func(_, n int) []byte { return make([]byte, n) }, func(src int, data []byte) {
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

// AlltoallvStream is the personalized all-to-all with both sides handed
// over one step at a time, so a caller can act on each source's payload
// while the later steps are still in flight. Step 0 is this rank's own
// payload; step k (1 ≤ k < n) is a pairwise exchange that sends to rank
// id+k and receives from rank id-k (mod n), the size ahead of the payload.
// send(dst) produces the payload for dst just before its step, into(src, n)
// returns the buffer, at least n bytes long, that src's n-byte payload is
// received into, and recv(src, data) is called as the step completes with
// that buffer cut to n. The own payload is handed to recv as send returned
// it, uncopied, and into is not asked for it.
func (r *Rank) AlltoallvStream(p *sim.Proc, send func(dst int) []byte, into func(src, n int) []byte, recv func(src int, data []byte)) {
	n := r.Size()
	sizeTag := r.nextCollTag()
	dataTag := r.nextCollTag()
	recv(r.id, send(r.id))
	for step := 1; step < n; step++ {
		dst := (r.id + step) % n
		src := (r.id - step + n) % n
		out := send(dst)
		var szb, rszb [8]byte
		binary.LittleEndian.PutUint64(szb[:], uint64(len(out)))
		r.Sendrecv(p, dst, sizeTag, szb[:], src, sizeTag, rszb[:])
		size := int(binary.LittleEndian.Uint64(rszb[:]))
		buf := into(src, size)[:size]
		r.Sendrecv(p, dst, dataTag, out, src, dataTag, buf)
		recv(src, buf)
	}
}
