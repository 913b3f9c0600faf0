package mpiio

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"dafsio/internal/aggregate"
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
//     server, cb_nodes = stripe width) when the driver's layout is striped
//     and the world is wide enough, else equal chunks, one per rank
//     (cb_nodes = world size).
//  3. Writes: each rank ships one write block per domain owner over MPI —
//     its pieces' (offset, length) headers, then their data — and the
//     owners issue few large driver writes.
//     Reads: ranks ship their (offset, length) requests to the owners,
//     which read the pieces and ship them back.
//
// Unless NoBatch is set (and Open sets it over a leaf without batch I/O)
// the exchange and the I/O overlap source by source, the pipelined
// two-phase of Thakur, Gropp and Lusk: an aggregator starts a list write
// on each source's block the moment it arrives, and starts one list read
// per source straight into that source's reply, waiting on it only at the
// exchange step that ships it — so the servers work while the exchange is
// still in flight. With NoBatch the phases run one after the other: the
// whole exchange, then sorted and assembled contiguous runs.
//
// The payoff is turning many small, hole-separated accesses — which pay
// per-operation latency and server cost — into link-speed bulk transfers,
// at the price of one extra memory copy per end and an MPI exchange.

// WriteAtAll is the collective MPI_File_write_at_all. Every rank of the
// world must call it (with its own offset and buffer; empty buffers are
// fine). In atomic mode each rank writes independently under the file
// lock, as a serial file does.
func (f *File) WriteAtAll(p *sim.Proc, off int64, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, ErrNegative
	}
	r := f.rank
	if r == nil || r.Size() == 1 || f.atomic {
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
	pt := f.collPartition(gmin, gmax)
	endPlan()

	// Phase 1: pack one write block per domain owner.
	endPack := f.aggSpan(p, "pack")
	blocks := packBlocks(pt, r.Size(), segs, buf)
	f.drv.Node().CopyMem(p, len(buf))
	endPack()

	// Phase 2: exchange and aggregate.
	var aggErr error
	if !f.hints.NoBatch {
		aggErr = f.pipelinedWrite(p, blocks)
	} else {
		endEx := f.aggSpan(p, "exchange")
		recv := r.AlltoallvBytes(p, blocks)
		endEx()
		aggErr = f.aggregateWrite(p, recv)
	}

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

// pipelinedWrite exchanges the write blocks and starts a list write on each
// source's block the moment it arrives — this rank's own block first, as
// packed — then waits for every write it started. After a failure it
// starts no more writes, but it stays in the exchange, which every rank
// must finish.
func (f *File) pipelinedWrite(p *sim.Proc, blocks [][]byte) error {
	ops := make([]AsyncOp, 0, len(blocks))
	var segs []Segment
	var err error
	endEx := f.aggSpan(p, "exchange")
	f.rank.AlltoallvStream(p, func(dst int) []byte { return blocks[dst] }, func(_ int, b []byte) {
		if err != nil {
			return
		}
		var blk writeBlock
		if blk, err = splitBlock(b); err != nil || blk.pieces() == 0 {
			return
		}
		segs = appendSegs(slices.Grow(segs[:0], blk.pieces()), blk.hdrs)
		var op AsyncOp
		if op, err = f.h.StartList(p, segs, blk.data, true); err == nil {
			ops = append(ops, op)
		}
	})
	endEx()
	_, err = waitAll(p, ops, err)
	return err
}

// aggregateWrite sorts this rank's incoming pieces, assembles contiguous
// runs (each capped at CollBufSize) into one packed collective buffer, and
// issues them as pipelined contiguous writes. A failed start stops the
// issuing; every write already started is waited out.
func (f *File) aggregateWrite(p *sim.Proc, recv [][]byte) error {
	node := f.drv.Node()
	type tuple struct {
		off  int64
		data []byte
	}
	// Check every block first, so the tuple list and the collective buffer
	// are sized once.
	nt, nb := 0, 0
	for _, b := range recv {
		blk, err := splitBlock(b)
		if err != nil {
			return err
		}
		nt, nb = nt+blk.pieces(), nb+len(blk.data)
	}
	tuples := make([]tuple, 0, nt)
	for _, b := range recv {
		blk, _ := splitBlock(b)
		data := blk.data
		for h := blk.hdrs; len(h) > 0; h = h[tupleHdr:] {
			off, l := readReq(h)
			tuples = append(tuples, tuple{off: off, data: data[:l]})
			data = data[l:]
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

	ops := make([]AsyncOp, 0, len(runs))
	var err error
	pos := 0
	for _, run := range runs {
		var op AsyncOp
		if op, err = f.h.Start(p, run.Off, packed[pos:pos+int(run.Len)], true); err != nil {
			break
		}
		pos += int(run.Len)
		ops = append(ops, op)
	}
	node.CopyMem(p, assembled) // collective-buffer assembly copy
	_, err = waitAll(p, ops, err)
	return err
}

// ReadAtAll is the collective MPI_File_read_at_all. The returned count is
// the total number of bytes delivered into buf (short at EOF holes). In
// atomic mode each rank reads independently under the file lock.
func (f *File) ReadAtAll(p *sim.Proc, off int64, buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, ErrNegative
	}
	r := f.rank
	if r == nil || r.Size() == 1 || f.atomic {
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
	var datas [][]byte
	var aggErr error
	if !f.hints.NoBatch {
		datas, aggErr = f.pipelinedRead(p, reqs)
	} else {
		replies, err := f.aggregateRead(p, reqs)
		if aggErr = err; replies == nil {
			replies = make([][]byte, n)
		}
		endEx2 := f.aggSpan(p, "exchange")
		datas = r.AlltoallvBytes(p, replies)
		endEx2()
	}

	// Scatter the replies into buf. An empty reply to a nonempty request
	// list means its owner failed, which the Allreduce below reports.
	endScatter := f.aggSpan(p, "scatter")
	total := 0
	failed := false
	var scatterErr error
	for a, reply := range datas {
		refs := myReqs[a]
		if len(refs) == 0 {
			continue
		}
		if len(reply) == 0 {
			failed = true
			continue
		}
		if len(reply) < replyHdr*len(refs) {
			scatterErr = errCorruptReply
			continue
		}
		avails, data := reply[:replyHdr*len(refs)], reply[replyHdr*len(refs):]
		for i, ref := range refs {
			avail := int(binary.LittleEndian.Uint32(avails[i*replyHdr:]))
			if avail > ref.n || len(data) < avail {
				scatterErr = errCorruptReply
				break
			}
			copy(buf[ref.bufPos:ref.bufPos+avail], data[:avail])
			data = data[avail:]
			total += avail
		}
	}
	node.CopyMem(p, total)
	endScatter()

	ok := int64(1)
	if aggErr != nil || scatterErr != nil || failed {
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

// pipelinedRead starts one list read per source, straight into the data
// area of that source's reply, in the order the exchange ships the replies
// (this rank's own first), then exchanges them, waiting on each source's
// read only at the step that sends it. A read that comes back short — an
// EOF hole, which batch reads zero-fill and report only as a total — is
// redone for that source alone with contiguous reads. After a failure the
// remaining sources get empty replies, but every started read is waited
// and the exchange runs to the end, as every rank must.
func (f *File) pipelinedRead(p *sim.Proc, reqs [][]byte) ([][]byte, error) {
	n, me := len(reqs), f.rank.ID()
	var err error
	sizes, most := make([]int, n), 0
	for src, pl := range reqs {
		if len(pl)%tupleHdr != 0 {
			err = errCorruptRequest
			break
		}
		for h := pl; len(h) > 0; h = h[tupleHdr:] {
			_, l := readReq(h)
			sizes[src] += replyHdr + l
		}
		most = max(most, len(pl)/tupleHdr)
	}
	replies := make([][]byte, n)
	ops := make([]AsyncOp, n)
	if err == nil {
		all := carve[byte](sizes)
		segs := make([]Segment, 0, most)
		for step := 0; step < n && err == nil; step++ {
			src := (me + step) % n
			pl := reqs[src]
			if len(pl) == 0 {
				continue
			}
			reply := all[src][:sizes[src]]
			segs = appendSegs(segs[:0], pl)
			for i, s := range segs {
				binary.LittleEndian.PutUint32(reply[i*replyHdr:], uint32(s.Len))
			}
			op, serr := f.h.StartList(p, segs, reply[len(segs)*replyHdr:], false)
			if err = serr; err == nil {
				ops[src], replies[src] = op, reply
			}
		}
	}

	datas := make([][]byte, n)
	endEx := f.aggSpan(p, "exchange")
	f.rank.AlltoallvStream(p, func(dst int) []byte {
		op := ops[dst]
		if op == nil {
			return nil
		}
		reply, k := replies[dst], len(reqs[dst])/tupleHdr
		got, werr := op.Wait(p)
		if werr == nil && got < len(reply)-k*replyHdr {
			reply, werr = f.rereadSource(p, reply, reqs[dst])
		}
		if werr != nil {
			if err == nil {
				err = werr
			}
			return nil
		}
		return reply
	}, func(src int, data []byte) { datas[src] = data })
	endEx()
	return datas, err
}

// rereadSource rebuilds one source's reply in place from contiguous reads
// of its merged requests: the short-count reply the non-list path builds.
func (f *File) rereadSource(p *sim.Proc, reply, reqs []byte) ([]byte, error) {
	ranges := appendSegs(make([]Segment, 0, len(reqs)/tupleHdr), reqs)
	spans, err := f.readSpans(p, mergeRanges(ranges))
	if err != nil {
		return nil, err
	}
	reply, served := buildReply(reply[:0], reqs, spans)
	f.drv.Node().CopyMem(p, served) // reply assembly copy
	return reply, nil
}

// aggregateRead parses request tuples from every source, reads the merged
// ranges of this rank's domain with few large contiguous driver reads, and
// builds the per-source replies.
func (f *File) aggregateRead(p *sim.Proc, reqs [][]byte) ([][]byte, error) {
	nreq := 0
	for _, pl := range reqs {
		if len(pl)%tupleHdr != 0 {
			return nil, errCorruptRequest
		}
		nreq += len(pl) / tupleHdr
	}
	// Each reply is sized for every byte asked for, so it is short only at
	// an EOF hole.
	ranges := make([]Segment, 0, nreq)
	sizes := make([]int, len(reqs))
	for src, pl := range reqs {
		for ; len(pl) > 0; pl = pl[tupleHdr:] {
			o, l := readReq(pl)
			ranges = append(ranges, Segment{Off: o, Len: int64(l)})
			sizes[src] += replyHdr + l
		}
	}
	spans, err := f.readSpans(p, mergeRanges(ranges))
	if err != nil {
		return nil, err
	}
	replies := carve[byte](sizes)
	served := 0
	for src, pl := range reqs {
		var got int
		replies[src], got = buildReply(replies[src], pl, spans)
		served += got
	}
	f.drv.Node().CopyMem(p, served) // reply assembly copy
	return replies, nil
}

// span is a run of file bytes an aggregator has read.
type span struct {
	off  int64
	data []byte
}

// readSpans reads merged ranges in CollBufSize chunks of contiguous driver
// reads; a range stops at its first short chunk (EOF).
func (f *File) readSpans(p *sim.Proc, merged []Segment) ([]span, error) {
	var spans []span
	for _, m := range merged {
		cur := m.Off
		remaining := m.Len
		for remaining > 0 {
			take := min(remaining, int64(f.hints.CollBufSize))
			chunk := make([]byte, take)
			got, err := transfer(p, f.h, cur, chunk, false)
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
	return spans, nil
}

// buildReply appends to reply (empty, with room for every byte asked for)
// the answer to one source's requests out of spans, and returns it with
// the bytes it served.
func buildReply(reply, reqs []byte, spans []span) ([]byte, int) {
	k := len(reqs) / tupleHdr
	reply = reply[:k*replyHdr]
	served := 0
	for i := 0; i < k; i++ {
		o, l := readReq(reqs[i*tupleHdr:])
		before := len(reply)
		reply = appendAvail(reply, spans, o, l)
		binary.LittleEndian.PutUint32(reply[i*replyHdr:], uint32(len(reply)-before))
		served += len(reply) - before
	}
	return reply, served
}

// appendAvail appends the prefix of [off, off+n) that spans hold to out.
func appendAvail(out []byte, spans []span, off int64, n int) []byte {
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

// collPartition builds this collective's file-domain partition over the
// hull [gmin, gmax) from the driver's layout (aggregate.Domains has the
// fallback matrix).
func (f *File) collPartition(gmin, gmax int64) aggregate.Partition {
	return aggregate.Domains(f.drv.core().Striping(), gmin, gmax, f.rank.Size(), true)
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

// The exchange formats. tupleHdr is a piece's (offset uint64, length
// uint32) header: a read request is the header alone.
//
// A write block is one owner's share of a rank's collective write: the
// pieces' headers, then their data, contiguous and in header order — so an
// aggregator hands a received block's data to a list write as it is. It
// carries no count, so it is no longer than its headers and data: the
// headers end at the first one after which they and the data they
// describe account for the whole block. A rank with nothing for an owner
// sends it an empty block.
//
// A read reply answers one source's requests in request order: a uint32
// count per request (replyHdr) — the bytes available, short only at an
// EOF hole — then those bytes, contiguous. A list read fills the data area
// in place, every count the full request.
const (
	tupleHdr = 12
	replyHdr = 4
)

var (
	errCorruptPayload = errors.New("mpiio: corrupt collective payload")
	errCorruptRequest = errors.New("mpiio: corrupt collective request")
	errCorruptReply   = errors.New("mpiio: corrupt collective reply")
)

// writeBlock is a parsed write block: its piece headers and its data.
type writeBlock struct {
	hdrs, data []byte
}

// splitBlock finds the end of a write block's headers: each header read
// grows the headers-plus-data total by at least tupleHdr, so the first
// total that reaches len(b) must hit it exactly. An empty block splits
// into no pieces.
func splitBlock(b []byte) (writeBlock, error) {
	hdrEnd, data := 0, 0
	for hdrEnd+data < len(b) {
		if len(b)-hdrEnd < tupleHdr {
			return writeBlock{}, errCorruptPayload
		}
		_, l := readReq(b[hdrEnd:])
		hdrEnd, data = hdrEnd+tupleHdr, data+l
	}
	if hdrEnd+data != len(b) {
		return writeBlock{}, errCorruptPayload
	}
	return writeBlock{hdrs: b[:hdrEnd], data: b[hdrEnd:]}, nil
}

// pieces returns the block's piece count.
func (blk writeBlock) pieces() int { return len(blk.hdrs) / tupleHdr }

// appendSegs appends the pieces a run of tuple headers describes.
func appendSegs(segs []Segment, hdrs []byte) []Segment {
	for ; len(hdrs) > 0; hdrs = hdrs[tupleHdr:] {
		off, l := readReq(hdrs)
		segs = append(segs, Segment{Off: off, Len: int64(l)})
	}
	return segs
}

// readReq decodes the tuple header at the start of pl.
func readReq(pl []byte) (off int64, n int) {
	return int64(binary.LittleEndian.Uint64(pl)), int(binary.LittleEndian.Uint32(pl[8:]))
}

// packBlocks cuts segs, consecutive bytes of buf, at the partition's domain
// boundaries into one write block per owner, every block cut at the size a
// counting walk found from one allocation.
func packBlocks(pt aggregate.Partition, n int, segs []Segment, buf []byte) [][]byte {
	type cursor struct{ hdr, data int }
	cur := make([]cursor, n)
	sizes := make([]int, n)
	eachPiece(pt, segs, func(a int, _ int64, take, _ int) {
		cur[a].data += tupleHdr // the data starts after every header
		sizes[a] += tupleHdr + take
	})
	blocks := carve[byte](sizes)
	for a := range blocks {
		blocks[a] = blocks[a][:sizes[a]]
	}
	eachPiece(pt, segs, func(a int, off int64, take, bufPos int) {
		b, c := blocks[a], &cur[a]
		binary.LittleEndian.PutUint64(b[c.hdr:], uint64(off))
		binary.LittleEndian.PutUint32(b[c.hdr+8:], uint32(take))
		copy(b[c.data:], buf[bufPos:bufPos+take])
		c.hdr += tupleHdr
		c.data += take
	})
	return blocks
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
