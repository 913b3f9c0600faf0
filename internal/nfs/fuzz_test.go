package nfs

import (
	"testing"

	"dafsio/internal/kstack"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/wire"
)

// fuzzRig is a one-client rig whose store holds one 100-byte file, so a
// request can name a live handle.
func fuzzRig() (*rig, *storage.File) {
	r := newRig(1)
	f, err := r.store.Create("f")
	if err != nil {
		panic(err)
	}
	f.WriteAt(pat(100, 1), 0)
	return r, f
}

// request encodes one RPC request datagram.
func request(proc Proc, xid uint32, enc func(w *wire.Writer)) []byte {
	buf := make([]byte, kstack.MaxDatagram)
	w := wire.NewWriter(buf[rpcHeaderLen:])
	enc(w)
	encodeRPC(buf, rpcHeader{Proc: proc, XID: xid})
	return buf[:rpcHeaderLen+w.Len()]
}

// decodes reports whether body holds proc's arguments, read the way the
// server reads them.
func decodes(proc Proc, body []byte) bool {
	r := wire.NewReader(body)
	switch proc {
	case ProcNull:
	case ProcGetattr, ProcCommit:
		r.U64()
	case ProcSetattr:
		r.U64()
		r.U64()
	case ProcLookup, ProcCreate, ProcRemove:
		r.Str()
	case ProcRead:
		r.U64()
		r.U64()
		r.U32()
	case ProcWrite:
		r.U64()
		r.U64()
		r.Blob()
	default:
		return false
	}
	return r.Err() == nil
}

// FuzzServerRequest sends arbitrary bytes to the server's port as one
// datagram from a raw socket. The run must end cleanly: no panic and no
// parked process. A datagram whose RPC header does not decode is dropped;
// any other gets exactly one reply, with the request's XID and Proc,
// ErrsProto exactly when the body does not decode, and an empty body
// unless the status is OK.
func FuzzServerRequest(f *testing.F) {
	_, file := fuzzRig()
	fh := uint64(file.ID())
	f.Add(request(ProcNull, 1, func(w *wire.Writer) {}))
	f.Add(request(ProcGetattr, 2, func(w *wire.Writer) { w.U64(fh) }))
	f.Add(request(ProcSetattr, 3, func(w *wire.Writer) { w.U64(fh); w.U64(10) }))
	f.Add(request(ProcLookup, 4, func(w *wire.Writer) { w.Str("f") }))
	f.Add(request(ProcCreate, 5, func(w *wire.Writer) { w.Str("g") }))
	f.Add(request(ProcRemove, 6, func(w *wire.Writer) { w.Str("f") }))
	f.Add(request(ProcRead, 7, func(w *wire.Writer) { w.U64(fh); w.U64(40); w.U32(100) }))
	f.Add(request(ProcWrite, 8, func(w *wire.Writer) { w.U64(fh); w.U64(50); w.Blob(pat(200, 2)) }))
	f.Add(request(ProcCommit, 9, func(w *wire.Writer) { w.U64(fh) }))
	f.Add(request(ProcWrite, 10, func(w *wire.Writer) { w.U64(fh); w.U64(1 << 62); w.Blob([]byte{1}) }))
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) > kstack.MaxDatagram {
			t.Skip("larger than one datagram")
		}
		r, _ := fuzzRig()
		defer r.k.Shutdown()
		var replies []kstack.Datagram
		r.k.Spawn("raw", func(p *sim.Proc) {
			sock, err := r.stacks[0].Socket(0)
			if err != nil {
				t.Error(err)
				return
			}
			r.k.SpawnDaemon("raw.recv", func(p *sim.Proc) {
				for {
					dg, ok := sock.Recv(p)
					if !ok {
						return
					}
					replies = append(replies, dg)
				}
			})
			if err := sock.SendTo(p, r.srv.stack.Node.ID, Port, req); err != nil {
				t.Error(err)
				return
			}
			p.Wait(sim.Second) // far longer than any one request takes
		})
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		hdr, body, err := decodeRPC(req)
		if err != nil {
			if len(replies) != 0 {
				t.Fatalf("%d replies to a datagram with no RPC header", len(replies))
			}
			return
		}
		if len(replies) != 1 {
			t.Fatalf("%d replies to %v XID %d, want 1", len(replies), hdr.Proc, hdr.XID)
		}
		got, gotBody, err := decodeRPC(replies[0].Data)
		if err != nil {
			t.Fatalf("reply: %v", err)
		}
		if got.XID != hdr.XID || got.Proc != hdr.Proc {
			t.Fatalf("reply is %v XID %d, request %v XID %d", got.Proc, got.XID, hdr.Proc, hdr.XID)
		}
		if want := !decodes(hdr.Proc, body); (got.Status == ErrsProto) != want {
			t.Fatalf("%v: status %d, body decodes: %v", hdr.Proc, got.Status, !want)
		}
		if got.Status != OK && len(gotBody) != 0 {
			t.Fatalf("%v: status %d with a %d-byte body", hdr.Proc, got.Status, len(gotBody))
		}
	})
}
