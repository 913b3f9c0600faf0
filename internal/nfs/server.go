package nfs

import (
	"fmt"

	"dafsio/internal/kstack"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/wire"
)

// serverWorkers is the number of nfsd service threads.
const serverWorkers = 4

// Server is an NFS server on one node.
type Server struct {
	stack *kstack.Stack
	prof  *model.Profile
	k     *sim.Kernel
	store *storage.Store
	disk  *storage.Disk

	sock  *kstack.Socket
	workQ *sim.Chan[kstack.Datagram]
	bufs  msgBufs // idle request and reply buffers
}

// NewServer starts an NFS server on the stack's node, listening on the
// well-known port. A non-nil disk makes data operations hit it; nil models
// a fully cached server.
func NewServer(stack *kstack.Stack, prof *model.Profile, k *sim.Kernel, store *storage.Store, disk *storage.Disk) *Server {
	sock, err := stack.Socket(Port)
	if err != nil {
		panic(fmt.Sprintf("nfs: cannot bind server port: %v", err))
	}
	s := &Server{
		stack: stack, prof: prof, k: k, store: store, disk: disk,
		sock:  sock,
		workQ: sim.NewChan[kstack.Datagram](k, 0),
	}
	k.SpawnDaemon(stack.Node.Name+".nfs.listen", s.listen)
	for i := 0; i < serverWorkers; i++ {
		k.SpawnDaemon(fmt.Sprintf("%s.nfsd%d", stack.Node.Name, i), s.worker)
	}
	return s
}

// listen receives each request into a message buffer of its own and queues
// it for the workers; the worker that handles it gives the buffer back.
func (s *Server) listen(p *sim.Proc) {
	for {
		dg, ok := s.sock.RecvFrom(p, s.bufs.get())
		if !ok {
			return
		}
		s.workQ.Send(p, dg)
	}
}

// worker is one nfsd thread. It owns the codec pair every request it
// handles is decoded and answered with.
func (s *Server) worker(p *sim.Proc) {
	var r wire.Reader
	var w wire.Writer
	for {
		dg, ok := s.workQ.Recv(p)
		if !ok {
			return
		}
		s.handle(p, dg, &r, &w)
		s.bufs.put(dg.Data)
	}
}

// handle serves one request, decoding it with r and encoding the reply
// with w straight into a reply buffer. A reply that is not OK, or whose
// body overflowed (then ErrsProto), carries an empty body.
func (s *Server) handle(p *sim.Proc, dg kstack.Datagram, r *wire.Reader, w *wire.Writer) {
	hdr, body, err := decodeRPC(dg.Data)
	if err != nil {
		return // malformed: drop, client would retransmit
	}
	// XDR decode + VFS dispatch.
	s.stack.Node.Compute(p, s.prof.RPCCost+s.prof.NFSOpCost)
	out := s.bufs.get()
	defer s.bufs.put(out)
	r.Reset(body)
	w.Reset(out[rpcHeaderLen:])
	st := s.exec(p, hdr.Proc, r, w)
	if w.Err() != nil {
		st = ErrsProto
	}
	if st != OK {
		w.Reset(out[rpcHeaderLen:])
	}
	encodeRPC(out, rpcHeader{Proc: hdr.Proc, XID: hdr.XID, Status: st})
	s.stack.Node.Compute(p, s.prof.RPCCost) // XDR encode
	s.sock.SendTo(p, dg.Src, dg.SrcPort, out[:rpcHeaderLen+w.Len()])
}

func stStatus(err error) Status {
	switch err {
	case nil:
		return OK
	case storage.ErrNotFound:
		return ErrsNoEnt
	case storage.ErrExists:
		return ErrsExist
	case storage.ErrBadHandle:
		return ErrsStale
	default:
		return ErrsIO
	}
}

func (s *Server) file(r *wire.Reader) (*storage.File, Status) {
	fh := storage.FileID(r.U64())
	if r.Err() != nil {
		return nil, ErrsProto
	}
	f, err := s.store.Get(fh)
	if err != nil {
		return nil, ErrsStale
	}
	return f, OK
}

// exec performs one procedure, decoding its arguments from r and encoding
// an OK reply's body into w, and returns the reply status.
func (s *Server) exec(p *sim.Proc, proc Proc, r *wire.Reader, w *wire.Writer) Status {
	switch proc {
	case ProcNull:
		return OK

	case ProcLookup, ProcCreate:
		name := r.Str()
		if r.Err() != nil {
			return ErrsProto
		}
		var f *storage.File
		var err error
		if proc == ProcLookup {
			f, err = s.store.Lookup(name)
		} else {
			f, err = s.store.Create(name)
		}
		if err != nil {
			return stStatus(err)
		}
		w.U64(uint64(f.ID()))
		w.U64(uint64(f.Size()))
		return OK

	case ProcRemove:
		name := r.Str()
		if r.Err() != nil {
			return ErrsProto
		}
		return stStatus(s.store.Remove(name))

	case ProcGetattr:
		f, st := s.file(r)
		if st != OK {
			return st
		}
		w.U64(uint64(f.Size()))
		return OK

	case ProcSetattr:
		f, st := s.file(r)
		size := r.U64()
		if st != OK || r.Err() != nil {
			return bad(st, r)
		}
		if int64(size) < 0 || f.Truncate(int64(size)) != nil {
			return ErrsInval
		}
		return OK

	case ProcRead:
		f, st := s.file(r)
		off := int64(r.U64())
		count := int(r.U32())
		if st != OK || r.Err() != nil {
			return bad(st, r)
		}
		if count < 0 || count > kstack.MaxDatagram-1024 {
			return ErrsInval
		}
		n := f.ReadLen(off, count)
		if s.disk != nil && n > 0 {
			s.disk.AccessAt(p, off, n)
		}
		w.U32(uint32(n))
		if b := w.Need(n); b != nil {
			f.ReadAt(b, off)
		}
		return OK

	case ProcWrite:
		f, st := s.file(r)
		off := int64(r.U64())
		data := r.Blob()
		if st != OK || r.Err() != nil {
			return bad(st, r)
		}
		if s.disk != nil && len(data) > 0 {
			s.disk.AccessAt(p, off, len(data))
		}
		n, err := f.WriteAt(data, off)
		if err != nil {
			return ErrsInval
		}
		w.U32(uint32(n))
		return OK

	case ProcCommit:
		_, st := s.file(r)
		if st != OK {
			return st
		}
		if s.disk != nil {
			s.disk.Access(p, 0)
		}
		return OK

	default:
		return ErrsProto
	}
}

func bad(st Status, r *wire.Reader) Status {
	if r.Err() != nil {
		return ErrsProto
	}
	return st
}
