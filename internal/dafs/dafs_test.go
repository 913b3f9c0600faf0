package dafs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/via"
	"dafsio/internal/wire"
)

// rig is a one-server test bed with n client nodes.
type rig struct {
	k     *sim.Kernel
	prof  *model.Profile
	fab   *fabric.Fabric
	prov  *via.Provider
	store *storage.Store
	srv   *Server
	cNICs []*via.NIC
}

func newRig(nclients int) *rig {
	prof := model.CLAN1998()
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	prov := via.NewProvider(fab)
	srvNode := fab.AddNode("server")
	store := storage.NewStore()
	srv := NewServer(prov.NewNIC(srvNode), store, nil)
	r := &rig{k: k, prof: prof, fab: fab, prov: prov, store: store, srv: srv}
	for i := 0; i < nclients; i++ {
		r.cNICs = append(r.cNICs, prov.NewNIC(fab.AddNode(fmt.Sprintf("client%d", i))))
	}
	return r
}

// run executes fn as the single client process and fails the test on any
// simulation error.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc, c *Client)) {
	t.Helper()
	r.k.Spawn("client", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, nil)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		fn(p, c)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*7%251)
	}
	return b
}

func TestWireHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, 64)
	h := Header{Proc: ProcReadDirect, XID: 77, Status: StatusStale, BodyLen: 13}
	encodeHeader(buf, h)
	got, err := decodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestWireHeaderRejectsGarbage(t *testing.T) {
	if _, err := decodeHeader(make([]byte, 4)); err == nil {
		t.Fatal("short header accepted")
	}
	buf := make([]byte, 32)
	if _, err := decodeHeader(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	encodeHeader(buf, Header{Proc: ProcRead, BodyLen: 1000})
	if _, err := decodeHeader(buf); err == nil {
		t.Fatal("oversized body length accepted")
	}
}

func TestWireWriterReader(t *testing.T) {
	buf := make([]byte, 128)
	w := wire.NewWriter(buf)
	w.U8(7)
	w.U16(300)
	w.U32(1 << 20)
	w.U64(1 << 40)
	w.Str("hello")
	w.Blob([]byte{1, 2, 3})
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	r := wire.NewReader(w.Bytes())
	if r.U8() != 7 || r.U16() != 300 || r.U32() != 1<<20 || r.U64() != 1<<40 {
		t.Fatal("integer round trip failed")
	}
	if r.Str() != "hello" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(r.Blob(), []byte{1, 2, 3}) {
		t.Fatal("blob round trip failed")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestWireOverflowUnderflow(t *testing.T) {
	w := wire.NewWriter(make([]byte, 4))
	w.U64(1)
	if w.Err() == nil {
		t.Fatal("overflow not latched")
	}
	r := wire.NewReader([]byte{1, 2})
	r.U32()
	if r.Err() == nil {
		t.Fatal("underflow not latched")
	}
	if r.U64() != 0 || r.Str() != "" {
		t.Fatal("post-error reads not zero")
	}
}

// Proc.String labels every client and server span, tracing on or off,
// so naming a known operation must not allocate.
func TestProcString(t *testing.T) {
	for pr, want := range map[Proc]string{
		ProcConnect: "CONNECT", ProcWriteDirect: "WRITE_DIRECT", ProcWriteBatch: "WRITE_BATCH",
		0: "PROC(0)", ProcWriteBatch + 1: fmt.Sprintf("PROC(%d)", ProcWriteBatch+1),
	} {
		if got := pr.String(); got != want {
			t.Errorf("Proc(%d).String() = %q, want %q", uint16(pr), got, want)
		}
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = ProcReadDirect.String() }); n != 0 {
		t.Errorf("Proc.String allocates %v times a call (%q)", n, sink)
	}
}

func TestStatusErrRoundTrip(t *testing.T) {
	for st, want := range map[Status]error{
		StatusOK: nil, StatusNoEnt: ErrNoEnt, StatusExist: ErrExist,
		StatusStale: ErrStale, StatusInval: ErrInval, StatusTooBig: ErrTooBig,
		StatusIO: ErrIO, StatusAccess: ErrAccess, StatusProto: ErrProto,
	} {
		if err := st.Err(); err != want {
			t.Errorf("Status(%d).Err() = %v, want %v", st, err, want)
		}
	}
}

func TestNamespaceOps(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		if _, _, err := c.Lookup(p, "nope"); err != ErrNoEnt {
			t.Errorf("lookup missing: %v", err)
		}
		fh, attr, err := c.Create(p, "data.bin")
		if err != nil || attr.Size != 0 {
			t.Errorf("create: %v %v", attr, err)
		}
		if _, _, err := c.Create(p, "data.bin"); err != ErrExist {
			t.Errorf("duplicate create: %v", err)
		}
		fh2, _, err := c.Lookup(p, "data.bin")
		if err != nil || fh2 != fh {
			t.Errorf("lookup: %v %v", fh2, err)
		}
		io, err := c.StartRemove(p, "data.bin")
		if _, err := await(p, io, err); err != nil {
			t.Errorf("remove: %v", err)
		}
		if _, _, err := c.Lookup(p, "data.bin"); err != ErrNoEnt {
			t.Errorf("removed name resolves: %v", err)
		}
		io, err = c.StartGetattr(p, fh)
		if _, err := await(p, io, err); err != ErrStale {
			t.Errorf("stale getattr: %v", err)
		}
		if err := c.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

func TestInlineReadWrite(t *testing.T) {
	r := newRig(1)
	want := pattern(5000, 0x5a)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		n, err := c.Write(p, fh, 100, want)
		if err != nil || n != len(want) {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		io, err := c.StartGetattr(p, fh)
		size, err := await(p, io, err)
		if err != nil || size != 100+len(want) {
			t.Errorf("size after write: %v %v", size, err)
		}
		got := make([]byte, len(want))
		n, err = c.Read(p, fh, 100, got)
		if err != nil || n != len(want) {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Error("inline data mismatch")
		}
		// Read past EOF is short.
		n, err = c.Read(p, fh, int64(size)-10, got[:100])
		if err != nil || n != 10 {
			t.Errorf("tail read: n=%d err=%v", n, err)
		}
		n, err = c.Read(p, fh, int64(size)+5, got[:100])
		if err != nil || n != 0 {
			t.Errorf("past-EOF read: n=%d err=%v", n, err)
		}
	})
}

func TestInlineTooBigRejectedClientSide(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		big := make([]byte, c.MaxInline()+1)
		if _, err := c.Write(p, fh, 0, big); err != ErrTooBig {
			t.Errorf("oversized inline write: %v", err)
		}
		if _, err := c.Read(p, fh, 0, big); err != ErrTooBig {
			t.Errorf("oversized inline read: %v", err)
		}
	})
}

func TestDirectReadWrite(t *testing.T) {
	r := newRig(1)
	const n = 300000 // multi-cell, beyond inline
	want := pattern(n, 0xc3)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, err := c.Create(p, "big")
		if err != nil {
			t.Error(err)
			return
		}
		regMem := make([]byte, n)
		reg := c.NIC().Register(p, regMem)
		copy(regMem, want)
		wn, err := c.WriteDirect(p, fh, 0, reg, 0, n)
		if err != nil || wn != n {
			t.Errorf("write direct: n=%d err=%v", wn, err)
		}
		// Verify server-side content.
		f, _ := r.store.Lookup("big")
		if !bytes.Equal(stored(f, 0, n), want) {
			t.Error("server file content mismatch after direct write")
		}
		// Clear and read back.
		dstMem := make([]byte, n)
		dst := c.NIC().Register(p, dstMem)
		rn, err := c.ReadDirect(p, fh, 0, dst, 0, n)
		if err != nil || rn != n {
			t.Errorf("read direct: n=%d err=%v", rn, err)
		}
		if !bytes.Equal(dstMem, want) {
			t.Error("direct read data mismatch")
		}
	})
}

// A direct read returns the file as it was when the server ran the
// request, even when a write to the same range lands while the read's
// cells are still on the wire.
func TestDirectReadReturnsFileAsOfRequest(t *testing.T) {
	r := newRig(1)
	const n = 300000
	before, after := pattern(n, 0x11), pattern(n, 0x77)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		f, _ := r.store.Lookup("f")
		f.WriteAt(before, 0)
		dstMem := make([]byte, n)
		dst := c.NIC().Register(p, dstMem)
		t0 := p.Now()
		if _, err := c.ReadDirect(p, fh, 0, dst, 0, n); err != nil {
			t.Error(err)
			return
		}
		half := (p.Now() - t0) / 2
		clear(dstMem)
		r.k.Spawn("writer", func(q *sim.Proc) {
			q.Wait(half)
			f.WriteAt(after, 0)
		})
		if _, err := c.ReadDirect(p, fh, 0, dst, 0, n); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(stored(f, 0, n), after) {
			t.Error("the concurrent write did not land")
		}
		if !bytes.Equal(dstMem, before) {
			t.Error("a direct read saw a write that landed after the request ran")
		}
	})
}

func TestDirectReadShortAtEOF(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		c.Write(p, fh, 0, pattern(1000, 1))
		reg := c.NIC().Register(p, make([]byte, 4096))
		n, err := c.ReadDirect(p, fh, 500, reg, 0, 4096)
		if err != nil || n != 500 {
			t.Errorf("short direct read: n=%d err=%v", n, err)
		}
		n, err = c.ReadDirect(p, fh, 5000, reg, 0, 100)
		if err != nil || n != 0 {
			t.Errorf("past-EOF direct read: n=%d err=%v", n, err)
		}
	})
}

func TestDirectWriteExtendsFile(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		regMem := make([]byte, 100)
		reg := c.NIC().Register(p, regMem)
		fill := pattern(100, 9)
		copy(regMem, fill)
		if _, err := c.WriteDirect(p, fh, 1<<16, reg, 0, 100); err != nil {
			t.Error(err)
		}
		io, err := c.StartGetattr(p, fh)
		size, _ := await(p, io, err)
		if size != 1<<16+100 {
			t.Errorf("size %d", size)
		}
		f, _ := r.store.Lookup("f")
		if !bytes.Equal(stored(f, 1<<16, 100), fill) {
			t.Error("extended write content mismatch")
		}
	})
}

// TestDirectWriteFailedPullLeavesFile: a WRITE_DIRECT is a one-segment
// batch write, so a pull from client memory that fails places nothing:
// the file keeps its bytes and its size.
func TestDirectWriteFailedPullLeavesFile(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		old := pattern(100, 3)
		if _, err := c.Write(p, fh, 0, old); err != nil {
			t.Fatal(err)
		}
		reg := c.NIC().Register(p, pattern(8192, 9))
		io, err := c.StartWriteDirect(p, fh, 0, reg, 0, 8192)
		if err != nil {
			t.Fatal(err)
		}
		c.NIC().Deregister(p, reg) // before the server pulls
		if _, err := io.Wait(p); !errors.Is(err, ErrAccess) {
			t.Errorf("write from a deregistered region: %v, want %v", err, ErrAccess)
		}
		f, _ := r.store.Lookup("f")
		if f.Size() != 100 || !bytes.Equal(stored(f, 0, 100), old) {
			t.Errorf("failed pull changed the file: size %d", f.Size())
		}
	})
}

func TestAppend(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "log")
		off1, err := c.Append(p, fh, []byte("hello "))
		if err != nil || off1 != 0 {
			t.Errorf("append1: off=%d err=%v", off1, err)
		}
		off2, err := c.Append(p, fh, []byte("world"))
		if err != nil || off2 != 6 {
			t.Errorf("append2: off=%d err=%v", off2, err)
		}
		got := make([]byte, 11)
		c.Read(p, fh, 0, got)
		if string(got) != "hello world" {
			t.Errorf("log content %q", got)
		}
	})
}

func TestSetattrTruncate(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		c.Write(p, fh, 0, pattern(100, 2))
		if err := c.Setattr(p, fh, 40); err != nil {
			t.Error(err)
		}
		io, err := c.StartGetattr(p, fh)
		size, _ := await(p, io, err)
		if size != 40 {
			t.Errorf("size %d", size)
		}
	})
}

// TestObjectSizeBound: every write path and SETATTR refuses a byte past
// storage.MaxObject with StatusInval before it touches the file, which
// allocates no page; SETATTR to exactly the bound is allowed.
func TestObjectSizeBound(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		reg := c.NIC().Register(p, make([]byte, 100))
		if _, err := c.Write(p, fh, 1<<62, []byte{1}); err != ErrInval {
			t.Errorf("inline write at 2^62: %v", err)
		}
		if _, err := c.Write(p, fh, storage.MaxObject, []byte{1}); err != ErrInval {
			t.Errorf("inline write past the bound: %v", err)
		}
		if _, err := c.WriteDirect(p, fh, storage.MaxObject-50, reg, 0, 100); err != ErrInval {
			t.Errorf("direct write past the bound: %v", err)
		}
		io, err := c.StartWriteBatch(p, fh, []SegSpec{{Off: 0, Len: 10}, {Off: 1 << 62, Len: 10}}, reg, 0)
		if _, err := await(p, io, err); err != ErrInval {
			t.Errorf("batch write past the bound: %v", err)
		}
		if err := c.Setattr(p, fh, storage.MaxObject+1); err != ErrInval {
			t.Errorf("setattr past the bound: %v", err)
		}
		if err := c.Setattr(p, fh, -1); err != ErrInval {
			t.Errorf("setattr to -1: %v", err)
		}
		f, _ := r.store.Lookup("f")
		if f.Size() != 0 || f.Pages() != 0 {
			t.Errorf("after refused requests: size %d, %d pages", f.Size(), f.Pages())
		}
		if err := c.Setattr(p, fh, storage.MaxObject); err != nil {
			t.Errorf("setattr to the bound: %v", err)
		}
		if _, err := c.Append(p, fh, []byte{1}); err != ErrInval {
			t.Errorf("append past the bound: %v", err)
		}
		if f.Pages() != 0 {
			t.Errorf("after growing to the bound: %d pages", f.Pages())
		}
	})
}

func TestFsync(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		io, err := c.StartFsync(p, fh)
		if _, err := await(p, io, err); err != nil {
			t.Error(err)
		}
	})
}

func TestClosedSessionRejectsOps(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		c.Close(p)
		if _, _, err := c.Lookup(p, "x"); err != ErrClosed {
			t.Errorf("op after close: %v", err)
		}
	})
}

// TestByteCountersCountAcknowledgedBytes: a session's byte counters count
// only what the server acknowledged. Reads and writes to a stale handle
// move nothing and count nothing; an inline write used to count its bytes
// when the request went out.
func TestByteCountersCountAcknowledgedBytes(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		stale := FH(12345)
		buf := make([]byte, 512)
		reg := c.NIC().Register(p, buf)
		if _, err := c.Write(p, stale, 0, buf); err != ErrStale {
			t.Errorf("inline write to a stale handle: %v", err)
		}
		if _, err := c.Read(p, stale, 0, buf); err != ErrStale {
			t.Errorf("inline read from a stale handle: %v", err)
		}
		if _, err := c.WriteDirect(p, stale, 0, reg, 0, len(buf)); err != ErrStale {
			t.Errorf("direct write to a stale handle: %v", err)
		}
		if _, err := c.ReadDirect(p, stale, 0, reg, 0, len(buf)); err != ErrStale {
			t.Errorf("direct read from a stale handle: %v", err)
		}
		if s := c.Stats(); s != (ClientStats{Ops: s.Ops}) {
			t.Errorf("after four failed transfers: %+v, want no bytes counted", s)
		}
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := c.Write(p, fh, 0, buf); err != nil || n != len(buf) {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		if got := c.Stats().InlineWriteBytes; got != int64(len(buf)) {
			t.Errorf("InlineWriteBytes = %d after a %d B write", got, len(buf))
		}
	})
}

func TestPipelinedAsyncIO(t *testing.T) {
	r := newRig(1)
	const chunk = 8192
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		var ios []*IO
		for i := 0; i < 6; i++ {
			io, err := c.StartWrite(p, fh, int64(i*chunk), pattern(chunk, byte(i)))
			if err != nil {
				t.Error(err)
				return
			}
			ios = append(ios, io)
		}
		for _, io := range ios {
			if n, err := io.Wait(p); err != nil || n != chunk {
				t.Errorf("async write: n=%d err=%v", n, err)
			}
		}
		io, err := c.StartGetattr(p, fh)
		size, _ := await(p, io, err)
		if size != 6*chunk {
			t.Errorf("size %d", size)
		}
	})
}

// TestPipeliningOverlaps ensures that k pipelined requests complete in much
// less time than k sequential round trips.
func TestPipeliningOverlaps(t *testing.T) {
	seq := measureDafs(t, false)
	pipe := measureDafs(t, true)
	if pipe >= seq {
		t.Fatalf("pipelined %v not faster than sequential %v", pipe, seq)
	}
	if pipe > seq*3/4 {
		t.Fatalf("pipelined %v shows little overlap vs %v", pipe, seq)
	}
}

func measureDafs(t *testing.T, pipelined bool) sim.Time {
	t.Helper()
	r := newRig(1)
	const k = 8
	var elapsed sim.Time
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		buf := pattern(4096, 1)
		start := p.Now()
		if pipelined {
			var ios []*IO
			for i := 0; i < k; i++ {
				io, err := c.StartWrite(p, fh, int64(i)*4096, buf)
				if err != nil {
					t.Error(err)
					return
				}
				ios = append(ios, io)
			}
			for _, io := range ios {
				io.Wait(p)
			}
		} else {
			for i := 0; i < k; i++ {
				c.Write(p, fh, int64(i)*4096, buf)
			}
		}
		elapsed = p.Now() - start
	})
	return elapsed
}

func TestConcurrentClients(t *testing.T) {
	const nc = 4
	r := newRig(nc)
	r.store.Create("shared")
	for i := 0; i < nc; i++ {
		i := i
		nic := r.cNICs[i]
		r.k.Spawn(fmt.Sprintf("cl%d", i), func(p *sim.Proc) {
			c, err := Dial(p, nic, r.srv, nil)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			fh, _, err := c.Lookup(p, "shared")
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
				return
			}
			// Each client writes its own 64KB stripe directly.
			reg := c.NIC().Register(p, pattern(65536, byte(i)))
			if _, err := c.WriteDirect(p, fh, int64(i)*65536, reg, 0, 65536); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	f, _ := r.store.Lookup("shared")
	if f.Size() != nc*65536 {
		t.Fatalf("file size %d", f.Size())
	}
	for i := 0; i < nc; i++ {
		if !bytes.Equal(stored(f, int64(i)*65536, 65536), pattern(65536, byte(i))) {
			t.Fatalf("stripe %d corrupted", i)
		}
	}
	if got := r.srv.Stats().Sessions; got != nc {
		t.Fatalf("sessions %d", got)
	}
}

// TestDirectBeatsInlineForBulk verifies the protocol's central performance
// property in simulated time.
func TestDirectBeatsInlineForBulk(t *testing.T) {
	const total = 1 << 20
	inline := timeTransfer(t, false, total)
	direct := timeTransfer(t, true, total)
	if direct >= inline {
		t.Fatalf("direct (%v) not faster than inline (%v) for 1MB", direct, inline)
	}
}

// TestDirectSavesClientCPU verifies the paper's headline claim: per-byte
// client CPU cost is dramatically lower for direct I/O.
func TestDirectSavesClientCPU(t *testing.T) {
	const total = 1 << 20
	_, inlineCPU := timeAndCPU(t, false, total)
	_, directCPU := timeAndCPU(t, true, total)
	if directCPU*4 >= inlineCPU {
		t.Fatalf("direct CPU %v not <4x inline CPU %v", directCPU, inlineCPU)
	}
}

func timeTransfer(t *testing.T, direct bool, total int) sim.Time {
	t.Helper()
	d, _ := timeAndCPU(t, direct, total)
	return d
}

func timeAndCPU(t *testing.T, direct bool, total int) (sim.Time, sim.Time) {
	t.Helper()
	r := newRig(1)
	var elapsed, cpu sim.Time
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		node := c.Node()
		start, startCPU := p.Now(), node.CPU.BusyTime()
		if direct {
			reg := c.NIC().Register(p, pattern(total, 1))
			start, startCPU = p.Now(), node.CPU.BusyTime() // exclude registration
			if _, err := c.WriteDirect(p, fh, 0, reg, 0, total); err != nil {
				t.Error(err)
			}
		} else {
			data := pattern(c.MaxInline(), 1)
			for off := 0; off < total; off += len(data) {
				if _, err := c.Write(p, fh, int64(off), data); err != nil {
					t.Error(err)
				}
			}
		}
		elapsed = p.Now() - start
		cpu = node.CPU.BusyTime() - startCPU
	})
	return elapsed, cpu
}

func TestDafsDeterminism(t *testing.T) {
	trace := func() string {
		var sb strings.Builder
		r := newRig(2)
		r.store.Create("f")
		for i := 0; i < 2; i++ {
			nic := r.cNICs[i]
			r.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				c, err := Dial(p, nic, r.srv, nil)
				if err != nil {
					return
				}
				fh, _, _ := c.Lookup(p, "f")
				for j := 0; j < 5; j++ {
					c.Write(p, fh, int64(j*100), pattern(100, byte(j)))
				}
				fmt.Fprintf(&sb, "done@%v ", p.Now())
			})
		}
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := trace(), trace(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestUncachedServerIsDiskBound(t *testing.T) {
	prof := model.CLAN1998()
	mkRig := func(withDisk bool) (*rig, *sim.Kernel) {
		k := sim.NewKernel()
		fab := fabric.New(k, prof)
		prov := via.NewProvider(fab)
		srvNode := fab.AddNode("server")
		store := storage.NewStore()
		var disk *storage.Disk
		if withDisk {
			disk = storage.NewDisk(k, "disk", prof.DiskSeek, prof.DiskBW)
		}
		srv := NewServer(prov.NewNIC(srvNode), store, disk)
		r := &rig{k: k, prof: prof, fab: fab, prov: prov, store: store, srv: srv}
		r.cNICs = append(r.cNICs, prov.NewNIC(fab.AddNode("client0")))
		return r, k
	}
	measure := func(withDisk bool) sim.Time {
		r, _ := mkRig(withDisk)
		var elapsed sim.Time
		r.run(t, func(p *sim.Proc, c *Client) {
			fh, _, _ := c.Create(p, "f")
			reg := c.NIC().Register(p, make([]byte, 1<<20))
			start := p.Now()
			c.WriteDirect(p, fh, 0, reg, 0, 1<<20)
			elapsed = p.Now() - start
		})
		return elapsed
	}
	cached, uncached := measure(false), measure(true)
	if uncached <= cached {
		t.Fatalf("uncached (%v) not slower than cached (%v)", uncached, cached)
	}
}

// TestIdleSessionHoldsNoSlotMemory: a slot's bytes exist only while a
// message does, and a message holds only its class of the provider's pool,
// so a session with nothing in flight holds nothing in any of its four
// rings (client requests and responses, server requests and responses) nor
// in a wire cell — after Dial and between sequential 512-byte writes. The
// pool never holds more than one slab (8 buffers) per class those messages
// used: the 256-byte class of the CONNECT exchange, 2,048 bytes, and then
// the 1 KiB class of a 548-byte WRITE request and its cells, 10,240 bytes
// in all (a slab of whole 8,720-byte slots was 69,760).
func TestIdleSessionHoldsNoSlotMemory(t *testing.T) {
	r := newRig(1)
	r.store.Create("f")
	r.run(t, func(p *sim.Proc, c *Client) {
		idle := func(when string, slabs int) {
			// Let the last ack land: the server releases its response slot
			// on the send completion, after the client has the reply.
			p.Wait(100 * sim.Microsecond)
			if m := r.prov.RingMem(); m.Live != 0 || m.Cells != 0 || m.Idle != slabs || m.IdleHigh != slabs {
				t.Errorf("%s: pool %+v, want nothing live and one slab per class used (%d B) idle at most", when, m, slabs)
			}
		}
		idle("after dial", 8*256)
		fh, _, err := c.Lookup(p, "f")
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		for i := range 24 {
			if _, err := c.Write(p, fh, int64(i)*512, pattern(512, byte(i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			idle(fmt.Sprintf("after write %d", i), 8*(256+1024))
		}
	})
}

// stored reads n bytes at off straight out of a server's store. The range
// must lie inside the file, or it panics.
func stored(f *storage.File, off int64, n int) []byte {
	b := make([]byte, n)
	if got := f.ReadAt(b, off); got != n {
		panic(fmt.Sprintf("stored: %d of %d bytes at %d in file %d", got, n, off, f.ID()))
	}
	return b
}
