package mpiio

import (
	"errors"

	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/via"
)

// The per-server session seam under the striped dispatch core. The core
// decides where a unit of work goes and what happens when a server fails;
// a session only knows how to put one request on the wire to its server.
// It has three implementations: a DAFS session, an NFS mount and the
// node-local store. Only the DAFS session has batch I/O or redials.

// opKind names the operations the core sends to a rank object.
type opKind uint8

const (
	opLookup  opKind = iota // name → handle (0 when absent)
	opCreate                // name → handle
	opRemove                // name → 1 when the object existed, 0 when absent
	opGetattr               // handle → size
	opSetattr               // handle, off = new size
	opSync                  // handle
	opRead                  // contiguous: handle, off, buf (reg/regOff when registered)
	opWrite
	opReadList // batch: handle, specs packed consecutively in reg from regOff
	opWriteList
)

// request is one unit of work addressed to one rank object.
type request struct {
	kind   opKind
	name   string         // name-addressed operations
	fh     uint64         // handle-addressed operations
	off    int64          // object offset; the new size for opSetattr
	buf    []byte         // contiguous payload window
	reg    *via.Region    // registration holding buf or a list's window; nil when the transport needs none
	regOff int            // where buf, or a list's packed segments, start in reg
	specs  []dafs.SegSpec // list operations: object ranges, consecutive in reg
}

// session is the seam: one server's transport endpoint.
type session interface {
	// start puts rq on the wire without waiting for the response. The
	// op's Wait yields the request's single result value: a handle, a
	// size, a byte count (see opKind). A transport whose operation is
	// synchronous performs it here and returns a doneOp. Errors are the
	// transport's own; a session failure wraps dafs.ErrSession.
	start(p *sim.Proc, rq request) (AsyncOp, error)
	// redial re-establishes a failed session and returns its replacement.
	redial(p *sim.Proc) (session, error)
}

// The errors of a leaf asked for what it does not have.
var (
	errNoBatch  = errors.New("mpiio: transport has no batch I/O")
	errNoRedial = errors.New("mpiio: only DAFS sessions redial")
)

// ---- DAFS session ----

// dafsSession is one DAFS session of a pool. xfer is the pool's shared
// transfer discipline: its threshold picks inline or direct for every
// fragment.
type dafsSession struct {
	c    *dafs.Client
	xfer *dafsTransfer
}

// start boxes each operation's *dafs.IO (or a conversion of it) into the
// AsyncOp: one pointer, so boxing allocates nothing, and there is one per
// stripe fragment.
func (s *dafsSession) start(p *sim.Proc, rq request) (AsyncOp, error) {
	c, fh := s.c, dafs.FH(rq.fh)
	switch rq.kind {
	case opLookup:
		io, err := c.StartLookup(p, rq.name)
		return (*dafsName)(io), err
	case opCreate:
		io, err := c.StartCreate(p, rq.name)
		return (*dafsName)(io), err
	case opRemove:
		io, err := c.StartRemove(p, rq.name)
		return (*dafsRemove)(io), err
	case opGetattr:
		return c.StartGetattr(p, fh)
	case opSetattr:
		return c.StartSetattr(p, fh, rq.off)
	case opSync:
		return c.StartFsync(p, fh)
	case opRead, opWrite:
		return s.xfer.startIO(p, c, fh, rq.off, rq.buf, rq.reg, rq.regOff, rq.kind == opWrite)
	default: // opReadList, opWriteList
		return s.xfer.startBatch(p, c, fh, rq.specs, rq.reg, rq.regOff, rq.kind == opWriteList)
	}
}

func (s *dafsSession) redial(p *sim.Proc) (session, error) {
	nc, err := s.c.Redial(p)
	if err != nil {
		return nil, err
	}
	return &dafsSession{c: nc, xfer: s.xfer}, nil
}

// dafsName and dafsRemove are a Lookup or Create and a Remove in flight,
// under the seam's values for an absent name: handle 0, and 0 objects
// removed (1 when the name existed).
type (
	dafsName   dafs.IO
	dafsRemove dafs.IO
)

func (o *dafsName) Wait(p *sim.Proc) (int, error) {
	fh, err := (*dafs.IO)(o).Wait(p)
	if errors.Is(err, dafs.ErrNoEnt) {
		return 0, nil
	}
	return fh, err
}

func (o *dafsRemove) Wait(p *sim.Proc) (int, error) {
	_, err := (*dafs.IO)(o).Wait(p)
	if errors.Is(err, dafs.ErrNoEnt) {
		return 0, nil
	}
	return 1, err
}

// ---- NFS mount ----

// nfsSession is one NFS mount of a pool. Metadata RPCs are synchronous, so
// a wave of them goes one mount at a time; data transfers are chunked to
// rsize/wsize and pipelined by the mount and stay in flight.
type nfsSession struct{ c *nfs.Client }

func (s nfsSession) start(p *sim.Proc, rq request) (AsyncOp, error) {
	c, fh := s.c, nfs.FH(rq.fh)
	switch rq.kind {
	case opLookup, opCreate:
		call := c.Lookup
		if rq.kind == opCreate {
			call = c.Create
		}
		fh, _, err := call(p, rq.name)
		if errors.Is(err, nfs.ErrNoEnt) {
			return doneOp(0), nil
		}
		return doneOp(fh), err
	case opRemove:
		err := c.Remove(p, rq.name)
		if errors.Is(err, nfs.ErrNoEnt) {
			return doneOp(0), nil
		}
		return doneOp(1), err
	case opGetattr:
		attr, err := c.Getattr(p, fh)
		return doneOp(attr.Size), err
	case opSetattr:
		return doneOp(0), c.Setattr(p, fh, rq.off)
	case opSync:
		return doneOp(0), c.Commit(p, fh)
	case opRead:
		return c.StartRead(p, fh, rq.off, rq.buf)
	case opWrite:
		return c.StartWrite(p, fh, rq.off, rq.buf)
	default:
		return nil, errNoBatch
	}
}

// redial is never reached: an NFS mount is a hard mount with no call
// deadline, so it reports no session failures to recover from.
func (s nfsSession) redial(*sim.Proc) (session, error) { return nil, errNoRedial }

// ---- Node-local store ----

// memSession is the client's own file system as a session: no server and
// no wire. Every operation runs inside start against the store, then
// charges the client a syscall and a memory copy of the bytes it moved — a
// warm local file system. Its handles are the store's file IDs. Like both
// servers, it passes on the store's refusal of a write or a size past
// storage.MaxObject, which comes before any page is touched.
type memSession struct {
	node  *fabric.Node
	store *storage.Store
}

func (s memSession) start(p *sim.Proc, rq request) (AsyncOp, error) {
	v, moved, err := s.do(rq)
	s.node.Compute(p, s.node.Profile().SyscallCost)
	s.node.CopyMem(p, moved)
	return doneOp(v), err
}

// do performs rq on the store and returns its result value and the bytes
// it copied.
func (s memSession) do(rq request) (v, moved int, err error) {
	switch rq.kind {
	case opLookup:
		f, err := s.store.Lookup(rq.name)
		if err != nil {
			return 0, 0, nil // absent
		}
		return int(f.ID()), 0, nil
	case opCreate:
		f, err := s.store.Create(rq.name)
		if err != nil {
			return 0, 0, err
		}
		return int(f.ID()), 0, nil
	case opRemove:
		if s.store.Remove(rq.name) != nil {
			return 0, 0, nil // absent
		}
		return 1, 0, nil
	}
	f, err := s.store.Get(storage.FileID(rq.fh))
	if err != nil {
		return 0, 0, err
	}
	switch rq.kind {
	case opGetattr:
		return int(f.Size()), 0, nil
	case opSetattr:
		if err := f.Truncate(rq.off); err != nil {
			return 0, 0, err
		}
	case opSync:
	case opRead:
		n := f.ReadAt(rq.buf, rq.off)
		return n, n, nil
	case opWrite:
		n, err := f.WriteAt(rq.buf, rq.off)
		return n, n, err
	default:
		return 0, 0, errNoBatch
	}
	return 0, 0, nil
}

// redial is never reached: the local store never fails a session.
func (s memSession) redial(*sim.Proc) (session, error) { return nil, errNoRedial }
