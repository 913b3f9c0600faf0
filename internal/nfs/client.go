package nfs

import (
	"dafsio/internal/fabric"
	"dafsio/internal/kstack"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/wire"
)

// Port is the server's well-known port.
const Port = 2049

// MountOptions configures a client mount.
type MountOptions struct {
	// RSize and WSize bound the data per READ/WRITE RPC (default 32768,
	// a typical v3 mount of the era).
	RSize, WSize int
	// MaxInFlight bounds concurrent RPCs (the "biod" count; default 8).
	MaxInFlight int
}

func (o *MountOptions) withDefaults() MountOptions {
	out := MountOptions{RSize: 32768, WSize: 32768, MaxInFlight: 8}
	if o != nil {
		if o.RSize > 0 {
			out.RSize = o.RSize
		}
		if o.WSize > 0 {
			out.WSize = o.WSize
		}
		if o.MaxInFlight > 0 {
			out.MaxInFlight = o.MaxInFlight
		}
	}
	if out.RSize > kstack.MaxDatagram-1024 {
		out.RSize = kstack.MaxDatagram - 1024
	}
	if out.WSize > kstack.MaxDatagram-1024 {
		out.WSize = kstack.MaxDatagram - 1024
	}
	return out
}

// ClientStats counts mount activity.
type ClientStats struct {
	RPCs       int64
	ReadBytes  int64
	WriteBytes int64
}

// Client is one mount of an NFS server.
type Client struct {
	stack *kstack.Stack
	sock  *kstack.Socket
	prof  *model.Profile
	k     *sim.Kernel

	srvNode fabric.NodeID
	opts    MountOptions

	inflight *sim.Resource
	pending  map[uint32]*Call
	nextXID  uint32
	bufs     msgBufs // idle request and reply buffers
	calls    []*Call // collected calls, for the next RPCs (newCall)
	ios      []*IO   // waited IOs, for the next transfers (newIO)
	closed   bool
	stats    ClientStats
}

// callResult is a reply: its status, and its body inside msg, the message
// buffer dispatch received it into.
type callResult struct {
	status Status
	body   []byte
	msg    []byte
}

// Call is an in-flight RPC. A mount recycles its calls: start takes one
// from the free list, and wait, its one consumer, gives it back once the
// reply is in, so a call in pending is never on the list.
type Call struct {
	c   *Client
	fut *sim.Future[callResult]
	w   wire.Writer // encodes the request
	r   wire.Reader // decodes the reply
}

// newCall takes a collected call off the free list, or makes one.
func (c *Client) newCall() *Call {
	if n := len(c.calls); n > 0 {
		call := c.calls[n-1]
		c.calls = c.calls[:n-1]
		call.fut.Reset()
		return call
	}
	return &Call{c: c, fut: sim.NewFuture[callResult](c.k)}
}

// putCall gives a collected call back to its mount.
func (c *Client) putCall(call *Call) { c.calls = append(c.calls, call) }

// wait blocks for the reply and, if its status is OK, decodes the body with
// dec (nil: nothing to decode). It is the one place a reply's message buffer
// goes back to the pool, so a body never outlives wait, and the one place a
// sent call goes back to the mount, right after its buffer.
func (call *Call) wait(p *sim.Proc, dec func(r *wire.Reader) error) error {
	res := call.fut.Get(p)
	err := res.status.Err()
	if err == nil && dec != nil {
		call.r.Reset(res.body)
		err = dec(&call.r)
	}
	c := call.c
	c.bufs.put(res.msg)
	c.putCall(call)
	return err
}

// Mount connects a client on the stack's node to the server and verifies
// reachability with a NULL RPC.
func Mount(p *sim.Proc, stack *kstack.Stack, srv *Server, opts *MountOptions) (*Client, error) {
	o := opts.withDefaults()
	sock, err := stack.Socket(0)
	if err != nil {
		return nil, err
	}
	c := &Client{
		stack:    stack,
		sock:     sock,
		prof:     srv.prof,
		k:        srv.k,
		srvNode:  srv.stack.Node.ID,
		opts:     o,
		inflight: sim.NewResource(srv.k, stack.Node.Name+".nfs.biod", o.MaxInFlight),
		pending:  make(map[uint32]*Call),
	}
	c.k.SpawnDaemon(stack.Node.Name+".nfs.dispatch", c.dispatch)
	if err := c.roundtrip(p, ProcNull, func(w *wire.Writer) {}, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// Node returns the client's host.
func (c *Client) Node() *fabric.Node { return c.stack.Node }

// Stats returns a copy of the mount counters.
func (c *Client) Stats() ClientStats { return c.stats }

// dispatch routes RPC replies to waiting calls. Each reply is received into
// a message buffer that travels with it to Call.wait; a dropped reply's
// buffer takes the next one.
func (c *Client) dispatch(p *sim.Proc) {
	buf := c.bufs.get()
	for {
		dg, ok := c.sock.RecvFrom(p, buf)
		if !ok {
			return
		}
		hdr, body, err := decodeRPC(dg.Data)
		if err != nil {
			continue // malformed reply: drop
		}
		c.stack.Node.Compute(p, c.prof.RPCCost) // XDR decode
		call := c.pending[hdr.XID]
		delete(c.pending, hdr.XID)
		if call != nil {
			// The in-flight slot frees when the reply arrives, not when
			// the issuer collects it — otherwise a caller pipelining more
			// RPCs than slots would deadlock against itself.
			c.inflight.Release(1)
			call.fut.Set(callResult{status: hdr.Status, body: body, msg: buf})
			buf = c.bufs.get()
		}
	}
}

// start issues an RPC asynchronously.
func (c *Client) start(p *sim.Proc, proc Proc, enc func(w *wire.Writer)) (*Call, error) {
	if c.closed {
		return nil, ErrClosed
	}
	// The in-flight slot is held for the whole RPC and released by the
	// reply daemon when the response arrives (dispatch), never by this
	// proc — the client's flow-control window.
	//mpiolint:ignore blockhold slot released by the reply daemon on response arrival, never by this proc
	c.inflight.Acquire(p, 1)
	c.nextXID++
	xid := c.nextXID
	buf := c.bufs.get()
	defer c.bufs.put(buf)
	call := c.newCall()
	call.w.Reset(buf[rpcHeaderLen:])
	enc(&call.w)
	if err := call.w.Err(); err != nil {
		c.inflight.Release(1)
		c.putCall(call)
		return nil, err
	}
	encodeRPC(buf, rpcHeader{Proc: proc, XID: xid})
	c.stack.Node.Compute(p, c.prof.RPCCost) // XDR encode
	c.pending[xid] = call
	if err := c.sock.SendTo(p, c.srvNode, Port, buf[:rpcHeaderLen+call.w.Len()]); err != nil {
		delete(c.pending, xid)
		c.inflight.Release(1)
		c.putCall(call)
		return nil, err
	}
	c.stats.RPCs++
	return call, nil
}

// roundtrip issues an RPC and waits for its reply (see Call.wait for dec).
func (c *Client) roundtrip(p *sim.Proc, proc Proc, enc func(w *wire.Writer), dec func(r *wire.Reader) error) error {
	call, err := c.start(p, proc, enc)
	if err != nil {
		return err
	}
	return call.wait(p, dec)
}

// ---- Namespace and attributes ----

func (c *Client) fhAttr(p *sim.Proc, proc Proc, name string) (FH, Attr, error) {
	var fh FH
	var a Attr
	err := c.roundtrip(p, proc, func(w *wire.Writer) { w.Str(name) }, func(r *wire.Reader) error {
		fh = FH(r.U64())
		a = Attr{Size: int64(r.U64())}
		return r.Err()
	})
	return fh, a, err
}

// Lookup resolves a name.
func (c *Client) Lookup(p *sim.Proc, name string) (FH, Attr, error) {
	return c.fhAttr(p, ProcLookup, name)
}

// Create makes a new file.
func (c *Client) Create(p *sim.Proc, name string) (FH, Attr, error) {
	return c.fhAttr(p, ProcCreate, name)
}

// Remove deletes a file.
func (c *Client) Remove(p *sim.Proc, name string) error {
	return c.roundtrip(p, ProcRemove, func(w *wire.Writer) { w.Str(name) }, nil)
}

// Getattr fetches attributes (always from the server: noac).
func (c *Client) Getattr(p *sim.Proc, fh FH) (Attr, error) {
	var a Attr
	err := c.roundtrip(p, ProcGetattr, func(w *wire.Writer) { w.U64(uint64(fh)) }, func(r *wire.Reader) error {
		a = Attr{Size: int64(r.U64())}
		return r.Err()
	})
	return a, err
}

// Setattr truncates the file to size.
func (c *Client) Setattr(p *sim.Proc, fh FH, size int64) error {
	return c.roundtrip(p, ProcSetattr, func(w *wire.Writer) { w.U64(uint64(fh)); w.U64(uint64(size)) }, nil)
}

// Commit flushes server-side state (disk access on uncached servers).
func (c *Client) Commit(p *sim.Proc, fh FH) error {
	return c.roundtrip(p, ProcCommit, func(w *wire.Writer) { w.U64(uint64(fh)) }, nil)
}

// ---- Data path ----

// IO is an in-flight data transfer (possibly multiple RPCs). A mount
// recycles its IOs with their slices: Wait, which must be called exactly
// once, ends an IO's life, and the IO is invalid afterwards.
type IO struct {
	c     *Client
	calls []*Call
	bufs  [][]byte // destination slices for reads, aligned with calls
	write bool
}

// newIO takes a waited IO off the free list, or makes one.
func (c *Client) newIO(write bool) *IO {
	var io *IO
	if n := len(c.ios); n > 0 {
		io = c.ios[n-1]
		c.ios = c.ios[:n-1]
	} else {
		io = &IO{}
	}
	io.c, io.write = c, write
	return io
}

// putIO gives an IO back to its mount, dropping its hold on the calls and
// the caller's buffers.
func (c *Client) putIO(io *IO) {
	clear(io.calls)
	clear(io.bufs)
	io.c, io.calls, io.bufs = nil, io.calls[:0], io.bufs[:0]
	c.ios = append(c.ios, io)
}

// StartRead issues pipelined READ RPCs covering buf.
func (c *Client) StartRead(p *sim.Proc, fh FH, off int64, buf []byte) (*IO, error) {
	return c.startIO(p, ProcRead, fh, off, buf)
}

// StartWrite issues pipelined WRITE RPCs covering data.
func (c *Client) StartWrite(p *sim.Proc, fh FH, off int64, data []byte) (*IO, error) {
	return c.startIO(p, ProcWrite, fh, off, data)
}

// startIO issues one READ or WRITE RPC per rsize or wsize chunk of buf (a
// single RPC when buf is empty). A failed start abandons the chunks already
// in flight.
func (c *Client) startIO(p *sim.Proc, proc Proc, fh FH, off int64, buf []byte) (*IO, error) {
	write := proc == ProcWrite
	size := c.opts.RSize
	if write {
		size = c.opts.WSize
	}
	io := c.newIO(write)
	for done := 0; done < len(buf) || (len(buf) == 0 && done == 0); {
		n := min(size, len(buf)-done)
		chunkOff := off + int64(done)
		chunk := buf[done : done+n]
		call, err := c.start(p, proc, func(w *wire.Writer) {
			w.U64(uint64(fh))
			w.U64(uint64(chunkOff))
			if write {
				w.Blob(chunk)
			} else {
				w.U32(uint32(n))
			}
		})
		if err != nil {
			c.putIO(io)
			return nil, err
		}
		io.calls = append(io.calls, call)
		if !write {
			io.bufs = append(io.bufs, chunk)
		}
		done += n
		if n == 0 {
			break
		}
	}
	return io, nil
}

// Wait collects all chunk RPCs and returns the total byte count. A short
// read chunk (EOF) stops the count at the first gap, like a POSIX read.
// After a failed chunk it still collects the rest, undecoded, so their
// calls and message buffers go back to the mount, and returns the first
// error. Wait gives the IO back to its mount.
func (io *IO) Wait(p *sim.Proc) (int, error) {
	c := io.c
	if c == nil {
		panic("nfs: IO waited twice")
	}
	total := 0
	short := false
	var failed error
	for i, call := range io.calls {
		if failed != nil {
			call.wait(p, nil)
			continue
		}
		var n int
		failed = call.wait(p, func(r *wire.Reader) error {
			if io.write {
				n = int(r.U32())
			} else {
				n = copy(io.bufs[i], r.Blob())
			}
			return r.Err()
		})
		if failed != nil {
			continue
		}
		if io.write {
			total += n
			c.stats.WriteBytes += int64(n)
			continue
		}
		c.stats.ReadBytes += int64(n)
		if !short {
			total += n
			if n < len(io.bufs[i]) {
				short = true
			}
		}
	}
	c.putIO(io)
	return total, failed
}

// Read transfers up to len(buf) bytes at off (multiple RPCs as needed).
func (c *Client) Read(p *sim.Proc, fh FH, off int64, buf []byte) (int, error) {
	io, err := c.StartRead(p, fh, off, buf)
	if err != nil {
		return 0, err
	}
	return io.Wait(p)
}

// Write transfers data at off (multiple RPCs as needed).
func (c *Client) Write(p *sim.Proc, fh FH, off int64, data []byte) (int, error) {
	io, err := c.StartWrite(p, fh, off, data)
	if err != nil {
		return 0, err
	}
	return io.Wait(p)
}

// Close unmounts.
//
//mpiolint:ignore reach test probe: the lifetime test TestClientCloseRejectsFurtherCalls unmounts; keeps kstack.Socket.Close and sim.Chan.Close with it
func (c *Client) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.sock.Close()
	return nil
}
