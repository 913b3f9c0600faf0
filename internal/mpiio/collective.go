package mpiio

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"dafsio/internal/aggregate"
	"dafsio/internal/layout"
	"dafsio/internal/mpi"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// Two-phase collective I/O (ROMIO's generalized collective algorithm):
//
//  1. Every rank translates its request through its view and the ranks
//     exchange their access extents.
//  2. The aggregate file range is partitioned into *file domains* by the
//     internal/aggregate planner: stripe-aligned (one aggregator per
//     server, cb_nodes = stripe width) when the driver exposes a striped
//     layout and the world is wide enough, else equal chunks, one per
//     rank (cb_nodes = world size).
//  3. Writes: each rank ships (offset, data) tuples to the domain owners
//     over MPI (Alltoallv); owners assemble contiguous runs in collective
//     buffers and issue few large driver writes.
//     Reads: owners read merged ranges once and ship the requested pieces
//     back.
//
// The payoff is turning many small, hole-separated accesses — which pay
// per-operation latency and server cost — into link-speed bulk transfers,
// at the price of one extra memory copy per end and an MPI exchange.

// WriteAtAll is the collective MPI_File_write_at_all. Every rank of the
// world must call it (with its own offset and buffer; empty buffers are
// fine).
func (f *File) WriteAtAll(p *sim.Proc, off int64, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, ErrNegative
	}
	r := f.rank
	if r == nil || r.Size() == 1 {
		return f.WriteAt(p, off, buf)
	}
	if f.tr != nil {
		id := f.tr.Begin(f.track, trace.LayerMPIIO, "write-all", trace.OpID(p.TraceCtx()))
		old := p.SetTraceCtx(uint64(id))
		defer func() {
			p.SetTraceCtx(old)
			f.tr.End(id)
		}()
	}
	segs := f.physSegs(off, len(buf))
	endPlan := f.aggSpan(p, "plan")
	gmin, gmax, any := f.exchangeExtents(p, segs)
	if !any {
		endPlan()
		return 0, nil
	}
	n := r.Size()
	pt := f.collPartition(gmin, gmax)
	endPlan()
	node := f.drv.Node()

	// Phase 1: pack (offset, length, data) tuples per destination domain
	// owner, each payload allocated at the size a counting walk found.
	endPack := f.aggSpan(p, "pack")
	sizes := make([]int, n)
	eachPiece(pt, segs, func(a int, _ int64, take, _ int) { sizes[a] += tupleHdr + take })
	payloads := carve[byte](sizes)
	packed := 0
	eachPiece(pt, segs, func(a int, off int64, take, bufPos int) {
		pl := binary.LittleEndian.AppendUint64(payloads[a], uint64(off))
		pl = binary.LittleEndian.AppendUint32(pl, uint32(take))
		payloads[a] = append(pl, buf[bufPos:bufPos+take]...)
		packed += take
	})
	node.CopyMem(p, packed)
	endPack()

	// Phase 2: exchange and aggregate.
	endEx := f.aggSpan(p, "exchange")
	recv := r.AlltoallvBytes(p, payloads)
	endEx()
	aggErr := f.aggregateWrite(p, recv)

	// Completion + error propagation (also orders the data for any
	// subsequent collective).
	ok := int64(1)
	if aggErr != nil {
		ok = 0
	}
	if r.AllreduceI64(p, ok, mpi.OpMin) == 0 {
		if aggErr != nil {
			return 0, aggErr
		}
		return 0, fmt.Errorf("mpiio: collective write failed on a peer")
	}
	return len(buf), nil
}

// aggregateWrite sorts this rank's incoming tuples, assembles contiguous
// runs (each capped at CollBufSize) into one packed collective buffer, and
// issues them — as a single batch request when the driver supports list
// I/O and more than one run survived, else as pipelined contiguous writes
// (the exact pre-aggregate sequence).
func (f *File) aggregateWrite(p *sim.Proc, recv [][]byte) error {
	node := f.drv.Node()
	type tuple struct {
		off  int64
		data []byte
	}
	// Count first, so the tuple list and the collective buffer are sized
	// once.
	nt, nb := 0, 0
	for _, pl := range recv {
		for len(pl) > 0 {
			_, data, rest, err := nextTuple(pl)
			if err != nil {
				return err
			}
			nt, nb, pl = nt+1, nb+len(data), rest
		}
	}
	tuples := make([]tuple, 0, nt)
	for _, pl := range recv {
		for len(pl) > 0 {
			off, data, rest, _ := nextTuple(pl)
			tuples = append(tuples, tuple{off: off, data: data})
			pl = rest
		}
	}
	slices.SortStableFunc(tuples, func(a, b tuple) int { return cmp.Compare(a.off, b.off) })

	// Assemble: runs[i] covers packed[runPos(i):...]; assembly is pure host
	// computation, so deferring the driver operations costs no simulated
	// time versus issuing each run as it closes.
	packed := make([]byte, 0, nb)
	var runs []Segment
	runPos := 0 // start of the open run within packed
	assembled := 0
	for _, t := range tuples {
		end := int64(-1)
		if len(runs) > 0 {
			end = runs[len(runs)-1].Off + runs[len(runs)-1].Len
		}
		switch {
		case len(runs) == 0:
			runPos = len(packed)
			runs = append(runs, Segment{Off: t.off, Len: int64(len(t.data))})
			packed = append(packed, t.data...)
		case t.off == end && int(runs[len(runs)-1].Len)+len(t.data) <= f.hints.CollBufSize:
			runs[len(runs)-1].Len += int64(len(t.data))
			packed = append(packed, t.data...)
		case t.off >= runs[len(runs)-1].Off && t.off+int64(len(t.data)) <= end:
			// Overlap fully inside the run: later tuple wins.
			copy(packed[runPos+int(t.off-runs[len(runs)-1].Off):], t.data)
		default:
			runPos = len(packed)
			runs = append(runs, Segment{Off: t.off, Len: int64(len(t.data))})
			packed = append(packed, t.data...)
		}
		assembled += len(t.data)
	}

	// One batch request for the whole hole-separated domain when the
	// protocol can carry it.
	if lh, ok := f.h.(ListHandle); ok && !f.hints.NoBatch && len(runs) > 1 {
		op, err := lh.StartWriteList(p, runs, packed)
		if err != nil {
			return err
		}
		node.CopyMem(p, assembled) // collective-buffer assembly copy
		_, err = op.Wait(p)
		return err
	}

	ops := make([]AsyncOp, 0, len(runs))
	pos := 0
	for _, run := range runs {
		op, err := f.h.StartWrite(p, run.Off, packed[pos:pos+int(run.Len)])
		if err != nil {
			return err
		}
		pos += int(run.Len)
		ops = append(ops, op)
	}
	node.CopyMem(p, assembled) // collective-buffer assembly copy
	for _, op := range ops {
		if _, err := op.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadAtAll is the collective MPI_File_read_at_all. The returned count is
// the total number of bytes delivered into buf (short at EOF holes).
func (f *File) ReadAtAll(p *sim.Proc, off int64, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, ErrNegative
	}
	r := f.rank
	if r == nil || r.Size() == 1 {
		return f.ReadAt(p, off, buf)
	}
	if f.tr != nil {
		id := f.tr.Begin(f.track, trace.LayerMPIIO, "read-all", trace.OpID(p.TraceCtx()))
		old := p.SetTraceCtx(uint64(id))
		defer func() {
			p.SetTraceCtx(old)
			f.tr.End(id)
		}()
	}
	segs := f.physSegs(off, len(buf))
	endPlan := f.aggSpan(p, "plan")
	gmin, gmax, any := f.exchangeExtents(p, segs)
	if !any {
		endPlan()
		return 0, nil
	}
	n := r.Size()
	pt := f.collPartition(gmin, gmax)
	endPlan()
	node := f.drv.Node()

	// Phase 1: send (offset, length) request tuples to domain owners,
	// remembering where each tuple's data belongs in buf. A counting walk
	// sizes both per-owner lists first.
	type reqRef struct {
		bufPos int
		n      int
	}
	endPack := f.aggSpan(p, "pack")
	counts := make([]int, n)
	eachPiece(pt, segs, func(a int, _ int64, _, _ int) { counts[a]++ })
	reqSizes := make([]int, n)
	for a, k := range counts {
		reqSizes[a] = k * tupleHdr
	}
	reqPayloads := carve[byte](reqSizes)
	myReqs := carve[reqRef](counts)
	eachPiece(pt, segs, func(a int, off int64, take, bufPos int) {
		pl := binary.LittleEndian.AppendUint64(reqPayloads[a], uint64(off))
		reqPayloads[a] = binary.LittleEndian.AppendUint32(pl, uint32(take))
		myReqs[a] = append(myReqs[a], reqRef{bufPos: bufPos, n: take})
	})
	endPack()
	endEx := f.aggSpan(p, "exchange")
	reqs := r.AlltoallvBytes(p, reqPayloads)
	endEx()

	// Phase 2: serve my domain and exchange the data back.
	replies, aggErr := f.aggregateRead(p, reqs)
	endEx2 := f.aggSpan(p, "exchange")
	datas := r.AlltoallvBytes(p, replies)
	endEx2()

	// Scatter replies into buf (reply tuples mirror request order).
	endScatter := f.aggSpan(p, "scatter")
	total := 0
	var scatterErr error
	for a, reply := range datas {
		for _, ref := range myReqs[a] {
			if len(reply) < replyHdr {
				scatterErr = fmt.Errorf("mpiio: corrupt collective reply")
				break
			}
			avail := int(binary.LittleEndian.Uint32(reply))
			reply = reply[replyHdr:]
			if avail > ref.n || len(reply) < avail {
				scatterErr = fmt.Errorf("mpiio: corrupt collective reply")
				break
			}
			copy(buf[ref.bufPos:ref.bufPos+avail], reply[:avail])
			reply = reply[avail:]
			total += avail
		}
	}
	node.CopyMem(p, total)
	endScatter()

	ok := int64(1)
	if aggErr != nil || scatterErr != nil {
		ok = 0
	}
	if r.AllreduceI64(p, ok, mpi.OpMin) == 0 {
		if aggErr != nil {
			return total, aggErr
		}
		if scatterErr != nil {
			return total, scatterErr
		}
		return total, fmt.Errorf("mpiio: collective read failed on a peer")
	}
	return total, nil
}

// ReadAll is the collective read at the individual file pointer
// (MPI_File_read_all).
func (f *File) ReadAll(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.ReadAtAll(p, f.ptr, buf)
	f.ptr += int64(n)
	return n, err
}

// WriteAll is the collective write at the individual file pointer
// (MPI_File_write_all).
func (f *File) WriteAll(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.WriteAtAll(p, f.ptr, buf)
	f.ptr += int64(n)
	return n, err
}

// Split collective I/O (MPI_File_write_at_all_begin/end): the collective
// runs in a helper process so the rank can compute while the exchange and
// aggregation proceed. Every rank must pair each begin with an end, and at
// most one split collective may be outstanding per file.

// WriteAtAllBegin starts a split collective write.
func (f *File) WriteAtAllBegin(p *sim.Proc, off int64, buf []byte) *Request {
	return f.async(p, func(hp *sim.Proc) (int, error) { return f.WriteAtAll(hp, off, buf) })
}

// ReadAtAllBegin starts a split collective read.
func (f *File) ReadAtAllBegin(p *sim.Proc, off int64, buf []byte) *Request {
	return f.async(p, func(hp *sim.Proc) (int, error) { return f.ReadAtAll(hp, off, buf) })
}

// aggregateRead parses request tuples from every source, reads the merged
// ranges of this rank's domain with few large driver reads, and builds the
// per-source replies.
func (f *File) aggregateRead(p *sim.Proc, reqs [][]byte) ([][]byte, error) {
	node := f.drv.Node()
	nreq := 0
	for _, pl := range reqs {
		if len(pl)%tupleHdr != 0 {
			return nil, fmt.Errorf("mpiio: corrupt collective request")
		}
		nreq += len(pl) / tupleHdr
	}
	// Each source's reply is a 4-byte count and the bytes available per
	// request, in request order: sized here for every byte asked for, so it
	// is short only at an EOF hole.
	ranges := make([]Segment, 0, nreq)
	sizes := make([]int, len(reqs))
	for src, pl := range reqs {
		for ; len(pl) > 0; pl = pl[tupleHdr:] {
			o, l := readReq(pl)
			ranges = append(ranges, Segment{Off: o, Len: int64(l)})
			sizes[src] += replyHdr + l
		}
	}
	merged := mergeRanges(ranges)

	type span struct {
		off  int64
		data []byte
	}
	var spans []span

	// One batch request for the whole hole-separated domain when the
	// protocol can carry it. Batch reads zero-fill EOF holes inside the
	// staging buffer and report only the byte total, so a short count
	// leaves hole positions ambiguous — discard and fall back to chunked
	// contiguous reads (correct, and rare: collectives over dense files).
	if lh, ok := f.h.(ListHandle); ok && !f.hints.NoBatch && len(merged) > 1 {
		var total int64
		for _, m := range merged {
			total += m.Len
		}
		stage := make([]byte, total)
		op, err := lh.StartReadList(p, merged, stage)
		if err != nil {
			return nil, err
		}
		got, err := op.Wait(p)
		if err != nil {
			return nil, err
		}
		if int64(got) == total {
			spans = make([]span, len(merged))
			pos := int64(0)
			for i, m := range merged {
				spans[i] = span{off: m.Off, data: stage[pos : pos+m.Len]}
				pos += m.Len
			}
		}
	}

	// Read merged ranges in CollBufSize chunks (the non-batch path, and
	// the fallback when a batch read came back short).
	if spans == nil {
		for _, m := range merged {
			cur := m.Off
			remaining := m.Len
			for remaining > 0 {
				take := min(remaining, int64(f.hints.CollBufSize))
				chunk := make([]byte, take)
				got, err := f.h.ReadContig(p, cur, chunk)
				if err != nil {
					return nil, err
				}
				if got > 0 {
					spans = append(spans, span{off: cur, data: chunk[:got]})
				}
				cur += take
				remaining -= take
				if got < int(take) {
					break // EOF inside this range
				}
			}
		}
	}

	// appendAvail appends the available prefix of [off, off+n) to out.
	appendAvail := func(out []byte, off int64, n int) []byte {
		cur := off
		for n > 0 {
			i := sort.Search(len(spans), func(i int) bool {
				return spans[i].off+int64(len(spans[i].data)) > cur
			})
			if i == len(spans) || spans[i].off > cur {
				break // hole (EOF region)
			}
			s := spans[i]
			rel := cur - s.off
			take := min(int64(n), int64(len(s.data))-rel)
			out = append(out, s.data[rel:rel+take]...)
			cur += take
			n -= int(take)
		}
		return out
	}

	replies := carve[byte](sizes)
	served := 0
	for src, pl := range reqs {
		reply := replies[src]
		for ; len(pl) > 0; pl = pl[tupleHdr:] {
			o, l := readReq(pl)
			hdr := len(reply)
			reply = appendAvail(append(reply, 0, 0, 0, 0), o, l)
			got := len(reply) - hdr - replyHdr
			binary.LittleEndian.PutUint32(reply[hdr:], uint32(got))
			served += got
		}
		replies[src] = reply
	}
	node.CopyMem(p, served) // reply assembly copy
	return replies, nil
}

// exchangeExtents allgathers each rank's [lo, hi) access range and returns
// the global hull. any is false when every rank's request is empty.
func (f *File) exchangeExtents(p *sim.Proc, segs []Segment) (gmin, gmax int64, any bool) {
	lo, hi := int64(-1), int64(-1)
	if len(segs) > 0 {
		lo = segs[0].Off
		hi = segs[len(segs)-1].Off + segs[len(segs)-1].Len
	}
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(lo))
	binary.LittleEndian.PutUint64(b[8:], uint64(hi))
	all := f.rank.AllgatherBytes(p, b[:])
	for _, e := range all {
		l := int64(binary.LittleEndian.Uint64(e[0:]))
		h := int64(binary.LittleEndian.Uint64(e[8:]))
		if l < 0 {
			continue
		}
		if !any || l < gmin {
			gmin = l
		}
		if !any || h > gmax {
			gmax = h
		}
		any = true
	}
	return gmin, gmax, any
}

// striper is the optional Driver extension exposing the placement policy
// (StripedDAFSDriver implements it); the collective layer uses it to align
// file domains to the stripe.
type striper interface {
	Striping() layout.Striping
}

// collPartition builds this collective's file-domain partition over the
// hull [gmin, gmax): stripe-aligned when the driver exposes a striped
// layout, else the legacy equal split (aggregate.Domains has the rest of
// the fallback matrix).
func (f *File) collPartition(gmin, gmax int64) aggregate.Partition {
	st := layout.Striping{Width: 1}
	if sd, ok := f.drv.(striper); ok {
		st = sd.Striping()
	}
	return aggregate.Domains(st, gmin, gmax, f.rank.Size(), true)
}

// aggSpan opens an observational aggregation-layer span (plan, pack,
// exchange, scatter) under the current trace context and returns its
// closer. Spans consume no simulated time.
func (f *File) aggSpan(p *sim.Proc, name string) func() {
	if f.tr == nil {
		return func() {}
	}
	id := f.tr.Begin(f.track, trace.LayerAggregate, name, trace.OpID(p.TraceCtx()))
	return func() { f.tr.End(id) }
}

// mergeRanges sorts and unions byte ranges in place: the result reuses,
// and the call reorders, in's backing array.
func mergeRanges(in []Segment) []Segment {
	if len(in) == 0 {
		return nil
	}
	slices.SortFunc(in, func(a, b Segment) int { return cmp.Compare(a.Off, b.Off) })
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.Off <= last.Off+last.Len {
			if end := s.Off + s.Len; end > last.Off+last.Len {
				last.Len = end - last.Off
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// tupleHdr is the (offset uint64, length uint32) header of an exchange
// tuple: a write tuple's data follows it, a read request is the header
// alone. replyHdr is the count that leads each piece of a read reply.
const (
	tupleHdr = 12
	replyHdr = 4
)

// nextTuple splits the first (offset, length, data) write tuple off pl.
func nextTuple(pl []byte) (off int64, data, rest []byte, err error) {
	if len(pl) < tupleHdr {
		return 0, nil, nil, fmt.Errorf("mpiio: corrupt collective payload")
	}
	off, l := readReq(pl)
	if len(pl) < tupleHdr+l {
		return 0, nil, nil, fmt.Errorf("mpiio: corrupt collective payload")
	}
	return off, pl[tupleHdr : tupleHdr+l], pl[tupleHdr+l:], nil
}

// readReq decodes the tuple header at the start of pl.
func readReq(pl []byte) (off int64, n int) {
	return int64(binary.LittleEndian.Uint64(pl)), int(binary.LittleEndian.Uint32(pl[8:]))
}

// eachPiece cuts segs, consecutive bytes of one user buffer, at the
// partition's domain boundaries and calls fn per piece in order: the
// owning aggregator, the piece's file offset and length, and where its
// bytes sit in the buffer. The counting walks that size the exchange
// buffers and the walks that fill them are both this one.
func eachPiece(pt aggregate.Partition, segs []Segment, fn func(a int, off int64, n, bufPos int)) {
	pos := 0
	for _, s := range segs {
		for cur, end := s.Off, s.Off+s.Len; cur < end; {
			a, hi := pt.Owner(cur)
			take := min(hi, end) - cur
			fn(a, cur, int(take), pos+int(cur-s.Off))
			cur += take
		}
		pos += int(s.Len)
	}
}

// carve returns one empty slice per entry of sizes, each with room for
// exactly that many elements, all cut from one allocation.
func carve[T any](sizes []int) [][]T {
	total := 0
	for _, k := range sizes {
		total += k
	}
	all := make([]T, total)
	out := make([][]T, len(sizes))
	pos := 0
	for i, k := range sizes {
		out[i] = all[pos : pos : pos+k]
		pos += k
	}
	return out
}
