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
// Both directions stream the exchange one source at a time
// (mpi.AlltoallvStream), the pipelined two-phase of Thakur, Gropp and
// Lusk, and NoBatch (which Open sets over a leaf without batch I/O)
// changes only the I/O an aggregator starts. With batch I/O an aggregator
// starts a list write on each source's block the moment it arrives, and
// starts one list read per source straight into that source's reply,
// waiting on it only at the exchange step that ships it — so the servers
// work while the exchange is still in flight. With NoBatch it keeps the
// blocks and, after the stream, writes them as sorted contiguous runs; and
// it reads its merged ranges in contiguous chunks, all started at once,
// before the reply exchange, each step of which cuts its source's reply
// from them. The read requests, which carry no data, stream the same way.
//
// Every exchange buffer is persistent, as ROMIO's collective buffer is:
// the blocks and requests a rank sends, what it receives from each
// source, an aggregator's replies and its NoBatch collective buffer all
// come from the working set the call takes from its driver's pool
// (scratch.go) and gives back once its last op is waited. At width 1 an
// aggregator's list and contiguous I/O use those buffers as RDMA windows,
// registered through the address-keyed registration cache, so from the
// driver's second collective call on they hit it instead of being pinned
// again.
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
	d := f.drv.core()
	sc := d.getScratch()
	defer d.putScratch(sc)
	sc.segs = f.physSegs(sc.segs, off, len(buf))
	segs := sc.segs
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
	blocks := packBlocks(sc, pt, r.Size(), segs, buf)
	f.drv.Node().CopyMem(p, len(buf))
	endPack()

	// Phase 2: exchange and aggregate.
	aggErr := f.exchangeWrite(p, sc, blocks)

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

// exchangeWrite streams the write blocks to their owners, each source's
// block received into that source's buffer of the set. With batch I/O a
// list write starts on each block the moment it arrives, this rank's own
// first, as packed; with NoBatch the blocks are kept and, after the
// stream, written as contiguous runs (startRuns). Then it waits for every
// write it started. After a failure it starts no more writes, but it
// stays in the exchange, which every rank must finish.
func (f *File) exchangeWrite(p *sim.Proc, sc *scratch, blocks [][]byte) error {
	n := len(blocks)
	sc.ops = sc.ops[:0]
	var kept []writeBlock // NoBatch: the blocks by source, for startRuns
	if f.hints.NoBatch {
		sc.kept = zeroed(sc.kept, n)
		kept = sc.kept
	}
	sc.in = grown(sc.in, n)
	var err error
	endEx := f.aggSpan(p, "exchange")
	f.rank.AlltoallvStream(p, func(dst int) []byte { return blocks[dst] }, sc.in.into, func(src int, b []byte) {
		if err != nil {
			return
		}
		var blk writeBlock
		if blk, err = splitBlock(b); err != nil || blk.pieces() == 0 {
			return
		}
		if kept != nil {
			kept[src] = blk
			return
		}
		sc.pieces = appendSegs(sc.pieces[:0], blk.hdrs)
		var op AsyncOp
		if op, err = f.h.StartList(p, sc.pieces, blk.data, true); err == nil {
			sc.ops = append(sc.ops, op)
		}
	})
	endEx()
	if kept != nil && err == nil {
		err = f.startRuns(p, sc, kept)
	}
	_, err = waitAll(p, sc.ops, err)
	return err
}

// tuple is one piece of a kept write block: its file offset and its data.
type tuple struct {
	off  int64
	data []byte
}

// startRuns sorts the pieces of the kept blocks (in source order, so among
// overlapping pieces the higher source wins), assembles contiguous runs
// (each capped at CollBufSize) into the set's collective buffer, and
// starts them all as contiguous writes, appended to the set's ops. A
// failed start stops the issuing; the writes already started are left
// there to be waited out.
func (f *File) startRuns(p *sim.Proc, sc *scratch, kept []writeBlock) error {
	nt, nb := 0, 0
	for _, blk := range kept {
		nt, nb = nt+blk.pieces(), nb+len(blk.data)
	}
	tuples := slices.Grow(sc.tuples[:0], nt)
	for _, blk := range kept {
		data := blk.data
		for h := blk.hdrs; len(h) > 0; h = h[tupleHdr:] {
			off, l := readReq(h)
			tuples = append(tuples, tuple{off: off, data: data[:l]})
			data = data[l:]
		}
	}
	sc.tuples = tuples
	slices.SortStableFunc(tuples, func(a, b tuple) int { return cmp.Compare(a.off, b.off) })

	// Assemble: runs[i] covers packed[runPos(i):...]; assembly is pure host
	// computation, so deferring the driver operations costs no simulated
	// time versus issuing each run as it closes.
	packed := slices.Grow(sc.coll[:0], nb)
	runs := sc.pieces[:0]
	runPos := 0 // start of the open run within packed
	assembled := 0
	for _, t := range tuples {
		last := len(runs) - 1
		switch {
		case last >= 0 && t.off == runs[last].Off+runs[last].Len && int(runs[last].Len)+len(t.data) <= f.hints.CollBufSize:
			runs[last].Len += int64(len(t.data))
			packed = append(packed, t.data...)
		case last >= 0 && t.off >= runs[last].Off && t.off+int64(len(t.data)) <= runs[last].Off+runs[last].Len:
			// Overlap fully inside the run: later tuple wins.
			copy(packed[runPos+int(t.off-runs[last].Off):], t.data)
		default:
			runPos = len(packed)
			runs = append(runs, Segment{Off: t.off, Len: int64(len(t.data))})
			packed = append(packed, t.data...)
		}
		assembled += len(t.data)
	}
	sc.coll, sc.pieces = packed, runs

	var err error
	pos := 0
	for _, run := range runs {
		var op AsyncOp
		if op, err = f.h.Start(p, run.Off, packed[pos:pos+int(run.Len)], true); err != nil {
			break
		}
		pos += int(run.Len)
		sc.ops = append(sc.ops, op)
	}
	f.drv.Node().CopyMem(p, assembled) // collective-buffer assembly copy
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
	d := f.drv.core()
	sc := d.getScratch()
	defer d.putScratch(sc)
	sc.segs = f.physSegs(sc.segs, off, len(buf))
	segs := sc.segs
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
	endPack := f.aggSpan(p, "pack")
	sc.counts = zeroed(sc.counts, 2*n)
	counts, reqSizes := sc.counts[:n], sc.counts[n:]
	eachPiece(pt, segs, func(a int, _ int64, _, _ int) { counts[a]++ })
	for a, k := range counts {
		reqSizes[a] = k * tupleHdr
	}
	reqPayloads := sc.out.cut(reqSizes)
	myReqs := sc.refs.cut(counts)
	eachPiece(pt, segs, func(a int, off int64, take, bufPos int) {
		pl := binary.LittleEndian.AppendUint64(reqPayloads[a], uint64(off))
		reqPayloads[a] = binary.LittleEndian.AppendUint32(pl, uint32(take))
		myReqs[a] = append(myReqs[a], reqRef{bufPos: bufPos, n: take})
	})
	endPack()
	endEx := f.aggSpan(p, "exchange")
	reqs := f.exchangeRequests(p, sc, reqPayloads)
	endEx()

	// Phase 2: serve my domain and exchange the data back.
	datas, aggErr := f.exchangeRead(p, sc, reqs)

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
//
//mpiolint:ignore reach MPI-2 API: MPI_File_read_all
func (f *File) ReadAll(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.ReadAtAll(p, f.ptr, buf)
	f.ptr += int64(n)
	return n, err
}

// WriteAll is the collective write at the individual file pointer
// (MPI_File_write_all).
//
//mpiolint:ignore reach MPI-2 API: MPI_File_write_all
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
//
//mpiolint:ignore reach MPI-2 API: MPI_File_write_at_all_begin
func (f *File) WriteAtAllBegin(p *sim.Proc, off int64, buf []byte) *Request {
	return f.async(p, func(hp *sim.Proc) (int, error) { return f.WriteAtAll(hp, off, buf) })
}

// ReadAtAllBegin starts a split collective read.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_read_at_all_begin
func (f *File) ReadAtAllBegin(p *sim.Proc, off int64, buf []byte) *Request {
	return f.async(p, func(hp *sim.Proc) (int, error) { return f.ReadAtAll(hp, off, buf) })
}

// reqRef is where one read request's bytes belong in the user buffer.
type reqRef struct {
	bufPos int
	n      int
}

// exchangeRequests ships each owner this rank's read requests and returns
// what every source asked of this rank, each in that source's request
// buffer of the set — the own requests copied there, and the copy charged,
// as mpi.AlltoallvBytes does.
func (f *File) exchangeRequests(p *sim.Proc, sc *scratch, send [][]byte) [][]byte {
	r := f.rank
	sc.reqs = grown(sc.reqs, len(send))
	r.AlltoallvStream(p, func(dst int) []byte { return send[dst] }, sc.reqs.into, func(src int, data []byte) {
		if src == r.ID() {
			sc.reqs[src] = append(sc.reqs[src][:0], data...)
			if len(data) > 0 {
				r.NIC().Node.CopyMem(p, len(data))
			}
		}
	})
	return sc.reqs
}

// exchangeRead serves this rank's domain and streams each source its
// reply, cut from the set's replies; each owner's reply to this rank is
// received into that owner's buffer of the set. With batch I/O it starts
// one list read per source, straight into the data area of that source's
// reply, in the order the exchange ships the replies (this rank's own
// first), and waits on each source's read only at the step that sends it;
// a read that comes back short — an EOF hole, which batch reads zero-fill
// and report only as a total — is redone for that source alone by the
// contiguous reader. With NoBatch the contiguous reader reads the merged
// requests of every source before the exchange, and each step cuts its
// source's reply from that buffer. After a failure the remaining sources
// get empty replies, but every started read is waited and the exchange
// runs to the end, as every rank must.
func (f *File) exchangeRead(p *sim.Proc, sc *scratch, reqs [][]byte) ([][]byte, error) {
	n, me := len(reqs), f.rank.ID()
	var err error
	sc.sizes = zeroed(sc.sizes, n)
	sizes, nreq := sc.sizes, 0
	for src, pl := range reqs {
		if len(pl)%tupleHdr != 0 {
			err = errCorruptRequest
			break
		}
		for h := pl; len(h) > 0; h = h[tupleHdr:] {
			_, l := readReq(h)
			sizes[src] += replyHdr + l
		}
		nreq += len(pl) / tupleHdr
	}
	replies := sc.replies.cut(sizes)
	sc.ops = zeroed(sc.ops, n)
	ops := sc.ops
	var held collBuf
	switch {
	case err != nil:
	case f.hints.NoBatch:
		sc.pieces = slices.Grow(sc.pieces[:0], nreq)
		for _, pl := range reqs {
			sc.pieces = appendSegs(sc.pieces, pl)
		}
		held, err = f.readContig(p, sc, sc.pieces)
	default:
		for step := 0; step < n && err == nil; step++ {
			src := (me + step) % n
			pl := reqs[src]
			if len(pl) == 0 {
				continue
			}
			reply := replies[src][:sizes[src]]
			sc.pieces = appendSegs(sc.pieces[:0], pl)
			for i, s := range sc.pieces {
				binary.LittleEndian.PutUint32(reply[i*replyHdr:], uint32(s.Len))
			}
			var op AsyncOp
			if op, err = f.h.StartList(p, sc.pieces, reply[len(sc.pieces)*replyHdr:], false); err == nil {
				ops[src], replies[src] = op, reply
			}
		}
	}

	sc.got = zeroed(sc.got, n)
	sc.in = grown(sc.in, n)
	datas := sc.got
	endEx := f.aggSpan(p, "exchange")
	f.rank.AlltoallvStream(p, func(dst int) []byte {
		if f.hints.NoBatch {
			if err != nil || len(reqs[dst]) == 0 {
				return nil
			}
			return f.cutReply(p, held, replies[dst], reqs[dst])
		}
		op := ops[dst]
		if op == nil {
			return nil
		}
		reply, k := replies[dst], len(reqs[dst])/tupleHdr
		got, werr := op.Wait(p)
		if werr == nil && got < len(reply)-k*replyHdr {
			var again collBuf
			sc.pieces = appendSegs(sc.pieces[:0], reqs[dst])
			if again, werr = f.readContig(p, sc, sc.pieces); werr == nil {
				reply = f.cutReply(p, again, reply, reqs[dst])
			}
		}
		if werr != nil {
			if err == nil {
				err = werr
			}
			return nil
		}
		return reply
	}, sc.in.into, func(src int, data []byte) { datas[src] = data })
	endEx()
	return datas, err
}

// collBuf is what the contiguous reader read: the merged, sorted ranges it
// covered and, for each, the bytes read from its start, short only at EOF.
type collBuf struct {
	ranges []Segment
	data   [][]byte
}

// chunk is one read of the contiguous reader in flight: CollBufSize bytes
// or fewer, at byte at of merged range rng.
type chunk struct {
	op       AsyncOp
	rng      int
	at, take int
}

// readContig merges ranges (reordering them) and reads them into the set's
// collective buffer, starting every CollBufSize chunk at once as a
// contiguous read. A range's bytes end at its first short chunk (EOF).
// After a failed start or read it waits out the reads already started and
// returns the error. What it returns lives in the set until the next read.
func (f *File) readContig(p *sim.Proc, sc *scratch, ranges []Segment) (collBuf, error) {
	merged := mergeRanges(ranges)
	total := int64(0)
	for _, m := range merged {
		total += m.Len
	}
	sc.coll = grown(sc.coll, int(total))
	sc.held = collBuf{ranges: merged, data: grown(sc.held.data, len(merged))}
	held, chunks := sc.held, sc.chunks[:0]
	var err error
	pos, step := 0, f.hints.CollBufSize
	for i, m := range merged {
		d := sc.coll[pos : pos+int(m.Len)]
		held.data[i] = d
		for at := 0; at < len(d) && err == nil; at += step {
			take := min(len(d)-at, step)
			var op AsyncOp
			if op, err = f.h.Start(p, m.Off+int64(at), d[at:at+take], false); err == nil {
				chunks = append(chunks, chunk{op: op, rng: i, at: at, take: take})
			}
		}
		pos += len(d)
	}
	sc.chunks = chunks
	for _, c := range chunks {
		got, werr := c.op.Wait(p)
		if err == nil {
			err = werr
		}
		// Chunks are waited in file order, so the first short one cuts.
		if end := c.at + got; got < c.take && end < len(held.data[c.rng]) {
			held.data[c.rng] = held.data[c.rng][:end]
		}
	}
	return held, err
}

// cutReply answers one source's requests out of held in reply's backing
// array — a count per request, then the bytes held for it, short only at
// EOF — charges the copy, and returns the reply.
func (f *File) cutReply(p *sim.Proc, held collBuf, reply, reqs []byte) []byte {
	k := len(reqs) / tupleHdr
	reply = reply[:k*replyHdr]
	served := 0
	for i := range k {
		off, l := readReq(reqs[i*tupleHdr:])
		j := sort.Search(len(held.ranges), func(j int) bool {
			return held.ranges[j].Off+held.ranges[j].Len > off
		})
		var d []byte
		if j < len(held.ranges) && held.ranges[j].Off <= off {
			d = held.data[j]
			d = d[min(int(off-held.ranges[j].Off), len(d)):]
		}
		d = d[:min(l, len(d))]
		reply = append(reply, d...)
		binary.LittleEndian.PutUint32(reply[i*replyHdr:], uint32(len(d)))
		served += len(d)
	}
	f.drv.Node().CopyMem(p, served) // reply assembly copy
	return reply
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
// boundaries into one write block per owner, every block cut from the
// set's outgoing slab at the size a counting walk found.
func packBlocks(sc *scratch, pt aggregate.Partition, n int, segs []Segment, buf []byte) [][]byte {
	sc.counts = zeroed(sc.counts, 3*n)
	hdr, data, sizes := sc.counts[:n], sc.counts[n:2*n], sc.counts[2*n:] // per owner: write cursors, block size
	eachPiece(pt, segs, func(a int, _ int64, take, _ int) {
		data[a] += tupleHdr // the data starts after every header
		sizes[a] += tupleHdr + take
	})
	blocks := sc.out.cut(sizes)
	for a := range blocks {
		blocks[a] = blocks[a][:sizes[a]]
	}
	eachPiece(pt, segs, func(a int, off int64, take, bufPos int) {
		b := blocks[a]
		binary.LittleEndian.PutUint64(b[hdr[a]:], uint64(off))
		binary.LittleEndian.PutUint32(b[hdr[a]+8:], uint32(take))
		copy(b[data[a]:], buf[bufPos:bufPos+take])
		hdr[a] += tupleHdr
		data[a] += take
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
