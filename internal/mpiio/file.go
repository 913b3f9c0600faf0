package mpiio

import (
	"fmt"
	"slices"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// Hints tunes the MPI-IO layer (the MPI_Info keys ROMIO understands, at the
// same defaults scale).
type Hints struct {
	// CollBufSize caps each contiguous access an aggregator issues during
	// two-phase collective I/O (cb_buffer_size) when it has no list I/O to
	// issue. Default 1 MiB.
	CollBufSize int
	// SieveBufSize is the data-sieving window (ind_rd_buffer_size).
	// Default 512 KiB.
	SieveBufSize int
	// Sieving enables data sieving for noncontiguous independent access;
	// off, the layer issues one driver operation per segment (list I/O).
	Sieving bool
	// NoBatch disables protocol-level batch I/O (Handle.StartList), forcing
	// per-segment list operations. Collective aggregators then issue
	// contiguous operations of up to CollBufSize instead of list I/O per
	// source: writes once the exchange has delivered every block, reads
	// before the reply exchange. Open forces it on over a leaf without
	// batch I/O (NFS, the local store).
	NoBatch bool
}

func (h *Hints) withDefaults() Hints {
	out := Hints{CollBufSize: 1 << 20, SieveBufSize: 512 << 10}
	if h != nil {
		if h.CollBufSize > 0 {
			out.CollBufSize = h.CollBufSize
		}
		if h.SieveBufSize > 0 {
			out.SieveBufSize = h.SieveBufSize
		}
		out.Sieving = h.Sieving
		out.NoBatch = h.NoBatch
	}
	return out
}

// File is an open MPI-IO file. When opened over an MPI rank, collective
// operations (Open, Close, SetSize, the *All I/O calls) must be invoked by
// every rank of the world.
type File struct {
	drv   Driver
	h     Handle
	rank  *mpi.Rank // nil for serial (non-MPI) use
	name  string
	mode  int
	hints Hints

	disp  int64
	ftype *Datatype // nil: flat (contiguous) view
	ptr   int64     // individual file pointer, in view data-space bytes

	svc       *fileService // rank 0's file service (service.go); nil: serial
	sharedPtr int64        // a serial file's shared pointer (shared.go)
	atomic    bool         // atomic mode (atomic.go)
	closed    bool

	tr    *trace.Tracer // from the driver, when it has one (nil: untraced)
	track string        // trace track: the host node's name
}

// Open opens name through drv. rank may be nil for serial use; when set,
// the call is collective: rank 0 performs any create first (avoiding create
// races), and all ranks synchronize before returning.
func Open(p *sim.Proc, rank *mpi.Rank, drv Driver, name string, mode int, hints *Hints) (*File, error) {
	if err := checkAccessMode(mode); err != nil {
		return nil, err
	}
	f := &File{drv: drv, rank: rank, name: name, mode: mode, hints: hints.withDefaults()}
	c := drv.core()
	f.hints.NoBatch = f.hints.NoBatch || c.dafsTransfer == nil
	if c.tr.Enabled() {
		f.tr, f.track = c.tr, c.node.Name
	}
	if rank == nil || rank.Size() == 1 {
		h, err := drv.Open(p, name, mode)
		if err != nil {
			return nil, err
		}
		f.h = h
		return f, nil
	}
	// Collective open: rank 0 opens (and creates) first; the others then
	// open the existing file without EXCL semantics racing, and without
	// DELETE_ON_CLOSE: only rank 0's handle deletes the file.
	var err error
	if rank.ID() == 0 {
		f.h, err = drv.Open(p, name, mode)
	}
	ok := int64(1)
	if rank.ID() == 0 && err != nil {
		ok = 0
	}
	ok = rank.AllreduceI64(p, ok, mpi.OpMin)
	if ok == 0 {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("mpiio: collective open failed on rank 0")
	}
	if rank.ID() != 0 {
		f.h, err = drv.Open(p, name, mode&^(ModeExcl|ModeDeleteOnClose))
		if err != nil {
			return nil, err
		}
	}
	f.startService(p)
	rank.Barrier(p)
	return f, nil
}

// Delete removes a file by name (MPI_File_delete).
//
//mpiolint:ignore reach MPI-2 API: MPI_File_delete
func Delete(p *sim.Proc, drv Driver, name string) error {
	return drv.Delete(p, name)
}

// SetView installs a file view: a displacement plus a filetype whose data
// space addresses subsequent offsets (MPI_File_set_view with etype =
// MPI_BYTE). A nil filetype restores the flat view. Resets the individual
// file pointer; the shared file pointer is NOT reset (deviation from MPI —
// call SeekShared, which is collective, if the view change needs it).
func (f *File) SetView(disp int64, ftype *Datatype) error {
	if f.closed {
		return ErrClosed
	}
	if disp < 0 {
		return ErrNegative
	}
	if ftype != nil && ftype.Size() == 0 {
		return fmt.Errorf("mpiio: zero-size filetype in view")
	}
	f.disp = disp
	f.ftype = ftype
	f.ptr = 0
	return nil
}

// View returns the current displacement and filetype (nil = flat).
//
//mpiolint:ignore reach MPI-2 API: MPI_File_get_view
func (f *File) View() (int64, *Datatype) { return f.disp, f.ftype }

// physSegs translates a view-relative byte range into physical file
// segments (ascending, coalesced), in segs's storage.
func (f *File) physSegs(segs []Segment, off int64, n int) []Segment {
	segs = segs[:0]
	if n <= 0 {
		return segs
	}
	if f.ftype == nil {
		return append(segs, Segment{Off: f.disp + off, Len: int64(n)})
	}
	segs = f.ftype.mapRange(off, int64(n), slices.Grow(segs, f.ftype.segBound(off, int64(n))))
	for i := range segs {
		segs[i].Off += f.disp
	}
	return segs
}

// ReadAt reads len(buf) view bytes starting at view offset off
// (MPI_File_read_at). The returned count is the total number of bytes
// transferred.
func (f *File) ReadAt(p *sim.Proc, off int64, buf []byte) (int, error) {
	return f.transferAt(p, off, buf, false)
}

// WriteAt writes len(buf) view bytes at view offset off
// (MPI_File_write_at).
func (f *File) WriteAt(p *sim.Proc, off int64, buf []byte) (int, error) {
	return f.transferAt(p, off, buf, true)
}

func (f *File) transferAt(p *sim.Proc, off int64, buf []byte, write bool) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, ErrNegative
	}
	if len(buf) == 0 {
		return 0, nil
	}
	if f.tr != nil {
		name := "read"
		if write {
			name = "write"
		}
		id := f.tr.Begin(f.track, trace.LayerMPIIO, name, trace.OpID(p.TraceCtx()))
		old := p.SetTraceCtx(uint64(id))
		defer func() {
			p.SetTraceCtx(old)
			f.tr.End(id)
		}()
	}
	f.lock(p)
	defer f.unlock(p)
	pos := f.disp + off // a flat view is one extent: no segment list to build
	if f.ftype != nil {
		d := f.drv.core()
		sc := d.getScratch()
		defer d.putScratch(sc)
		sc.segs = f.physSegs(sc.segs, off, len(buf))
		segs := sc.segs
		switch {
		case len(segs) == 1:
			pos = segs[0].Off
		case f.hints.Sieving && write:
			return f.sieveWrite(p, segs, buf)
		case f.hints.Sieving:
			return f.sieveRead(p, segs, buf)
		default:
			return f.listIO(p, sc, segs, buf, write)
		}
	}
	return transfer(p, f.h, pos, buf, write)
}

// listIO moves a noncontiguous request: through the driver's batch
// operations unless NoBatch is set, otherwise one pipelined driver
// operation per segment, its ops kept in the call's set.
func (f *File) listIO(p *sim.Proc, sc *scratch, segs []Segment, buf []byte, write bool) (int, error) {
	if !f.hints.NoBatch {
		op, err := f.h.StartList(p, segs, buf, write)
		if err != nil {
			return 0, err
		}
		return op.Wait(p)
	}
	return f.perSegIO(p, sc, segs, buf, write)
}

// perSegIO issues one pipelined driver operation per segment. A failed
// start stops the issuing, and every operation already started is waited
// out before the first error returns.
func (f *File) perSegIO(p *sim.Proc, sc *scratch, segs []Segment, buf []byte, write bool) (int, error) {
	sc.ops = slices.Grow(sc.ops[:0], len(segs))
	var err error
	pos := 0
	for _, s := range segs {
		var op AsyncOp
		if op, err = f.h.Start(p, s.Off, buf[pos:pos+int(s.Len)], write); err != nil {
			break
		}
		pos += int(s.Len)
		sc.ops = append(sc.ops, op)
	}
	return waitAll(p, sc.ops, err)
}

// waitAll waits out every op in order, so that none is abandoned in flight,
// and returns the bytes moved up to the first failure and that failure.
// err is a failure that came before the ops were waited (a failed start).
func waitAll(p *sim.Proc, ops []AsyncOp, err error) (int, error) {
	total := 0
	for _, op := range ops {
		n, werr := op.Wait(p)
		if err == nil {
			total += n
			err = werr
		}
	}
	return total, err
}

// Read and Write use the individual file pointer.

// Read transfers from the current file pointer and advances it.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_read
func (f *File) Read(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.ReadAt(p, f.ptr, buf)
	f.ptr += int64(n)
	return n, err
}

// Write transfers at the current file pointer and advances it.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_write
func (f *File) Write(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.WriteAt(p, f.ptr, buf)
	f.ptr += int64(n)
	return n, err
}

// Seek whence values.
const (
	SeekSet = iota
	SeekCur
	SeekEnd
)

// Seek repositions the individual file pointer (view-relative bytes).
// SeekEnd is relative to the file size mapped into the view's data space
// for flat views, and to the physical end otherwise.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_seek
func (f *File) Seek(p *sim.Proc, off int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.ptr
	case SeekEnd:
		size, err := f.h.Size(p)
		if err != nil {
			return 0, err
		}
		base = size - f.disp
		if base < 0 {
			base = 0
		}
	default:
		return 0, fmt.Errorf("mpiio: bad seek whence %d", whence)
	}
	np := base + off
	if np < 0 {
		return 0, ErrNegative
	}
	f.ptr = np
	return np, nil
}

// Tell returns the individual file pointer.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_get_position
func (f *File) Tell() int64 { return f.ptr }

// GetSize returns the physical file size.
func (f *File) GetSize(p *sim.Proc) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	return f.h.Size(p)
}

// SetSize truncates or extends the file (collective when rank is set).
func (f *File) SetSize(p *sim.Proc, n int64) error {
	if f.closed {
		return ErrClosed
	}
	var err error
	if f.rank == nil || f.rank.Size() == 1 {
		return f.h.Resize(p, n)
	}
	if f.rank.ID() == 0 {
		err = f.h.Resize(p, n)
	}
	f.rank.Barrier(p)
	return err
}

// Preallocate ensures the file is at least n bytes long (MPI_File_
// preallocate; collective when rank is set). Unlike SetSize it never
// shrinks.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_preallocate
func (f *File) Preallocate(p *sim.Proc, n int64) error {
	if f.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	grow := func() error {
		size, err := f.h.Size(p)
		if err != nil {
			return err
		}
		if size >= n {
			return nil
		}
		return f.h.Resize(p, n)
	}
	if f.rank == nil || f.rank.Size() == 1 {
		return grow()
	}
	var err error
	if f.rank.ID() == 0 {
		err = grow()
	}
	f.rank.Barrier(p)
	return err
}

// Sync commits written data (MPI_File_sync).
func (f *File) Sync(p *sim.Proc) error {
	if f.closed {
		return ErrClosed
	}
	return f.h.Sync(p)
}

// Close releases the file (collective when rank is set). After the closing
// barrier rank 0 stops the file service.
func (f *File) Close(p *sim.Proc) error {
	if f.closed {
		return nil
	}
	if f.rank != nil && f.rank.Size() > 1 {
		f.rank.Barrier(p)
	}
	f.closed = true
	f.stopService(p)
	return f.h.Close(p)
}

// Request is a nonblocking MPI-IO operation (MPI_File_iread/iwrite family).
type Request struct {
	fut *sim.Future[reqResult]
}

type reqResult struct {
	n   int
	err error
}

// Wait blocks until the operation completes and returns its count.
func (r *Request) Wait(p *sim.Proc) (int, error) {
	res := r.fut.Get(p)
	return res.n, res.err
}

func (f *File) async(p *sim.Proc, fn func(hp *sim.Proc) (int, error)) *Request {
	req := &Request{fut: sim.NewFuture[reqResult](p.Kernel())}
	p.Spawn("mpiio.async", func(hp *sim.Proc) {
		n, err := fn(hp)
		req.fut.Set(reqResult{n: n, err: err})
	})
	return req
}

// IreadAt starts a nonblocking ReadAt.
//
//mpiolint:ignore reach MPI-2 API: MPI_File_iread_at
func (f *File) IreadAt(p *sim.Proc, off int64, buf []byte) *Request {
	return f.async(p, func(hp *sim.Proc) (int, error) { return f.ReadAt(hp, off, buf) })
}

// IwriteAt starts a nonblocking WriteAt.
func (f *File) IwriteAt(p *sim.Proc, off int64, buf []byte) *Request {
	return f.async(p, func(hp *sim.Proc) (int, error) { return f.WriteAt(hp, off, buf) })
}
