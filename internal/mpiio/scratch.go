package mpiio

// A noncontiguous MPI-IO call — the list branch of transferAt, WriteAtAll,
// ReadAtAll and the split collectives over them — works in host buffers it
// would otherwise allocate afresh every time: its segment list, the write
// blocks it packs, the read requests it sends and the replies it answers
// them with, what the exchange receives from each source, and a NoBatch
// aggregator's collective buffer. ROMIO keeps one collective buffer
// (cb_buffer_size) and reuses it on every call; the driver keeps a pool of
// such working sets beside its free lists of ops, as many as were ever in
// use at once — in practice one per rank.
//
// A call takes one set when it starts and gives it back once every
// operation it started has been waited, never before: a width-1 list
// transfer or a contiguous one moves straight out of the set's buffers
// until its op is waited, and a call parks between filling a buffer and
// using it. So calls in flight at once on one driver — the nonblocking
// requests and split collectives, each on a proc of its own — always hold
// different sets. (What a list op itself needs until it is waited, its
// plans and the segment lists a batch request is encoded from when a
// session credit frees, stays with the op: planOp.) A set is plain host
// memory: nothing in it is registered and nothing is charged in simulated
// time. Its buffers grow to the largest call they served and are never
// shrunk.

// scratch is one call's working set.
type scratch struct {
	segs   []Segment // the call's physical segments (physSegs)
	pieces []Segment // one list start's pieces; a NoBatch aggregator's runs or merged ranges
	ops    []AsyncOp // the operations the call started, in order or by source
	counts []int     // the packing walk's per-owner tallies
	sizes  []int     // an aggregator's reply size per source

	out     slab[byte]   // what this rank sends: write blocks or read requests, one per owner
	refs    slab[reqRef] // where the bytes of each read request land in the user buffer
	replies slab[byte]   // an aggregator's read replies, one per source
	in      recvBufs     // the data exchange's receive buffer per source
	reqs    recvBufs     // the request exchange's receive buffer per source
	st      stream       // the data exchange's per-owner fill or scatter

	kept   []writeBlock // NoBatch: the write blocks by source
	tuples []tuple      // NoBatch: their pieces in file order
	coll   []byte       // NoBatch: the collective buffer
	held   collBuf      // NoBatch: what the contiguous reader read
	chunks []chunk      // the contiguous reader's reads in flight

	sieve  []byte // data sieving's window (sieve.go)
	bufPos []int  // its per-segment positions in the user buffer
}

// getScratch takes a working set from the driver's pool, or makes one
// when every set is held by a call in flight.
func (d *striped) getScratch() *scratch {
	n := len(d.scratch)
	if n == 0 {
		return new(scratch)
	}
	sc := d.scratch[n-1]
	d.scratch = d.scratch[:n-1]
	return sc
}

// putScratch gives a set back once every operation of its call has been
// waited. The waited operations and the call's stream are dropped, so a
// pooled set pins none of them.
func (d *striped) putScratch(sc *scratch) {
	clear(sc.ops)
	clear(sc.chunks)
	sc.st = stream{send: sc.st.send, recv: sc.st.recv}
	d.scratch = append(d.scratch, sc)
}

// slab is a call's per-rank slices cut from one backing array.
type slab[T any] struct {
	all   []T
	parts [][]T
}

// cut returns one empty slice per entry of sizes, each with room for
// exactly that many elements, all cut from the slab's backing array, which
// grows to the total when it is short.
func (s *slab[T]) cut(sizes []int) [][]T {
	total := 0
	for _, k := range sizes {
		total += k
	}
	s.all = grown(s.all, total)
	s.parts = grown(s.parts, len(sizes))
	pos := 0
	for i, k := range sizes {
		s.parts[i] = s.all[pos : pos : pos+k]
		pos += k
	}
	return s.parts
}

// grown returns b at length n, in its own storage when it has room: a
// call's buffer grows to the largest call and is never shrunk. What b
// held is not cleared (zeroed clears).
func grown[T any](b []T, n int) []T {
	if n > cap(b) {
		return make([]T, n)
	}
	return b[:n]
}

// recvBufs is an exchange's receive buffer per source, with the exchange's
// into bound to them once, so that handing it over allocates nothing.
type recvBufs struct {
	bufs [][]byte
	into func(src, n int) []byte // grow, bound once
}

// reset sizes the buffers for n sources and returns the exchange's into.
func (b *recvBufs) reset(n int) func(src, n int) []byte {
	b.bufs = grown(b.bufs, n)
	if b.into == nil {
		b.into = b.grow
	}
	return b.into
}

// grow is the exchange's receive-buffer source: src's buffer, grown to n
// bytes.
func (b *recvBufs) grow(src, n int) []byte {
	b.bufs[src] = grown(b.bufs[src], n)
	return b.bufs[src]
}
