package mpiio

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// stripedRig builds an N-server cluster, opens a striped file from client
// 0, and runs fn.
func stripedRig(t *testing.T, servers int, stripe int64, fn func(p *sim.Proc, f *File, c *cluster.Cluster)) {
	t.Helper()
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers})
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, f, c)
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestStripedRoundTrip writes through the striped driver, reads back, and
// checks both the logical bytes and the physical per-server placement.
func TestStripedRoundTrip(t *testing.T) {
	const (
		stripe  = 4 << 10
		servers = 3
		total   = 10*stripe + 513 // unaligned tail
	)
	data := pattern(total)
	stripedRig(t, servers, stripe, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		if n, err := f.WriteAt(p, 0, data); err != nil || n != total {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
		got := make([]byte, total)
		if n, err := f.ReadAt(p, 0, got); err != nil || n != total {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read-back differs from written data")
		}
		// Unaligned interior read crossing several stripes and servers.
		sub := make([]byte, 2*stripe+100)
		off := int64(stripe/2 + 1)
		if n, err := f.ReadAt(p, off, sub); err != nil || n != len(sub) {
			t.Fatalf("interior ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(sub, data[off:off+int64(len(sub))]) {
			t.Fatal("interior read differs")
		}
		if sz, err := f.GetSize(p); err != nil || sz != total {
			t.Fatalf("Size = %d, %v (want %d)", sz, err, total)
		}
		// Physical check: each server's stripe object holds exactly its
		// layout share, with the right bytes at the right object offsets.
		st := layout.Striping{StripeSize: stripe, Width: servers}
		for i, store := range c.Stores {
			obj, err := store.Lookup("s")
			if err != nil {
				t.Fatalf("server %d: %v", i, err)
			}
			if obj.Size() != st.ObjectSizes(total)[i] {
				t.Errorf("server %d object size %d, want %d", i, obj.Size(), st.ObjectSizes(total)[i])
			}
		}
		for _, frag := range st.Map(0, total) {
			obj, _ := c.Stores[frag.Server].Lookup("s")
			got := make([]byte, frag.Len)
			obj.ReadAt(got, frag.Off)
			if !bytes.Equal(got, data[frag.BufOff:frag.BufOff+frag.Len]) {
				t.Fatalf("fragment %+v holds wrong bytes", frag)
			}
		}
	})
}

// TestStripedShortRead: EOF mid-stripe must yield the contiguous-prefix
// count, not the sum of whatever fragments returned.
func TestStripedShortRead(t *testing.T) {
	const (
		stripe  = 4 << 10
		servers = 2
		size    = 2*stripe + 777 // ends 777 bytes into stripe 2 (server 0)
	)
	stripedRig(t, servers, stripe, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		if _, err := f.WriteAt(p, 0, pattern(size)); err != nil {
			t.Fatal(err)
		}
		// Read 2 stripes starting inside stripe 1: only stripe 1's tail
		// plus 777 bytes of stripe 2 exist.
		off := int64(stripe + 100)
		buf := make([]byte, 2*stripe)
		n, err := f.ReadAt(p, off, buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := size - int(off); n != want {
			t.Fatalf("short read = %d, want %d", n, want)
		}
		// Entirely past EOF: zero bytes.
		if n, err := f.ReadAt(p, int64(size+stripe), buf); err != nil || n != 0 {
			t.Fatalf("past-EOF read = %d, %v", n, err)
		}
	})
}

// TestStripedResize exercises truncate/extend through the layout's
// per-server object sizes.
func TestStripedResize(t *testing.T) {
	const (
		stripe  = 1 << 10
		servers = 4
	)
	stripedRig(t, servers, stripe, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		if _, err := f.WriteAt(p, 0, pattern(6*stripe)); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{3*stripe + 17, 0, 5 * stripe} {
			if err := f.SetSize(p, n); err != nil {
				t.Fatalf("Resize(%d): %v", n, err)
			}
			if sz, err := f.GetSize(p); err != nil || sz != n {
				t.Fatalf("after Resize(%d): Size = %d, %v", n, sz, err)
			}
		}
	})
}

// One seeded op script over every driver stack, with MemDriver as the
// oracle: contiguous and list reads/writes whose extents cross stripe
// boundaries (fragments on both sides of the inline/direct threshold),
// short reads at EOF, Resize, Size and Sync. Every stack must return the
// oracle's counts and leave the oracle's bytes. The files stay dense — a
// striped file with a hole reads short where a local one reads zeros.

const scriptStripe = 16 << 10

type scriptOp struct {
	kind byte // 'w' write, 'r' read, 'W' list write, 'R' list read, 't' resize, 's' size, 'y' sync
	off  int64
	n    int
	segs []Segment
}

// genScript builds the op list; size tracks the logical file size so list
// ops and resizes stay inside (or at the edge of) the dense extent.
func genScript(seed int64, nops int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	ops := []scriptOp{{kind: 'w', off: 0, n: 5*scriptStripe + 1234}}
	size := int64(ops[0].n)
	for len(ops) < nops {
		switch k := rng.Intn(10); {
		case k < 3: // contiguous write at or before EOF (may extend)
			n := 1 + rng.Intn(5*scriptStripe)
			off := rng.Int63n(size + 1)
			ops = append(ops, scriptOp{kind: 'w', off: off, n: n})
			size = max(size, off+int64(n))
		case k < 6: // contiguous read, sometimes across or past EOF
			n := 1 + rng.Intn(5*scriptStripe)
			ops = append(ops, scriptOp{kind: 'r', off: rng.Int63n(size + scriptStripe), n: n})
		case k < 8: // strided list op inside the extent
			cnt, blk := 2+rng.Intn(12), 1+rng.Intn(3000)
			stride := int64(blk + 1 + rng.Intn(scriptStripe))
			if span := int64(cnt-1)*stride + int64(blk); span < size {
				base := rng.Int63n(size - span + 1)
				segs := make([]Segment, cnt)
				for i := range segs {
					segs[i] = Segment{Off: base + int64(i)*stride, Len: int64(blk)}
				}
				kind := byte('W')
				if k == 7 {
					kind = 'R'
				}
				ops = append(ops, scriptOp{kind: kind, n: cnt * blk, segs: segs})
			}
		case k == 8:
			if rng.Intn(3) == 0 {
				size = rng.Int63n(size + 2*scriptStripe)
				ops = append(ops, scriptOp{kind: 't', off: size})
			} else {
				ops = append(ops, scriptOp{kind: 's'})
			}
		default:
			ops = append(ops, scriptOp{kind: 'y'})
		}
	}
	return append(ops, scriptOp{kind: 's'})
}

// runScript plays ops on h and returns one result per op (byte count, or
// the size for 's') plus a digest of every byte every read returned, the
// final contents, and the simulated instant the script ended.
func runScript(t *testing.T, p *sim.Proc, h Handle, ops []scriptOp) (res []int64, contents []byte, end sim.Time) {
	t.Helper()
	lh, _ := h.(ListHandle)
	list := func(o scriptOp, buf []byte, write bool) (int, error) {
		if lh != nil {
			start := lh.StartReadList
			if write {
				start = lh.StartWriteList
			}
			op, err := start(p, o.segs, buf)
			if err != nil {
				return 0, err
			}
			return op.Wait(p)
		}
		total, pos := 0, 0
		for _, s := range o.segs {
			io := h.ReadContig
			if write {
				io = h.WriteContig
			}
			n, err := io(p, s.Off, buf[pos:pos+int(s.Len)])
			if err != nil {
				return total, err
			}
			total += n
			pos += int(s.Len)
		}
		return total, nil
	}
	sum := fnv.New64a()
	for i, o := range ops {
		var v int64
		var err error
		switch o.kind {
		case 'w', 'W':
			buf := pattern(o.n)
			for j := range buf {
				buf[j] ^= byte(i)
			}
			var n int
			if o.kind == 'w' {
				n, err = h.WriteContig(p, o.off, buf)
			} else {
				n, err = list(o, buf, true)
			}
			v = int64(n)
		case 'r', 'R':
			buf := make([]byte, o.n)
			var n int
			if o.kind == 'r' {
				n, err = h.ReadContig(p, o.off, buf)
			} else {
				n, err = list(o, buf, false)
			}
			sum.Write(buf[:n])
			v = int64(n)
		case 't':
			err = h.Resize(p, o.off)
		case 's':
			v, err = h.Size(p)
		case 'y':
			err = h.Sync(p)
		}
		if err != nil {
			t.Errorf("op %d (%c off=%d n=%d): %v", i, o.kind, o.off, o.n, err)
			return nil, nil, 0
		}
		res = append(res, v)
	}
	end = p.Now()
	res = append(res, int64(sum.Sum64()>>1))
	contents = make([]byte, res[len(ops)-1]+1)
	n, err := h.ReadContig(p, 0, contents)
	if err != nil {
		t.Errorf("final read-back: %v", err)
	}
	return res, contents[:n], end
}

// TestScriptEveryStack pins behaviour and simulated time across the
// driver family. The end instants were recorded before the striped
// drivers were rebuilt on one dispatch core, and the single-mount nfs one
// before the single-server drivers became that core at width 1: a
// refactor that reorders, adds or drops a single RPC on any stack moves
// one of them.
func TestScriptEveryStack(t *testing.T) {
	ops := genScript(12, 120)
	retry := dafs.RetryPolicy{Base: 200 * sim.Microsecond, Max: sim.Millisecond, Attempts: 3}
	type stack struct {
		name string
		cfg  cluster.Config
		drv  func(p *sim.Proc, c *cluster.Cluster) (Driver, error)
		end  sim.Time
	}
	striped := func(w, r int, crash, end sim.Time) stack {
		s := stack{
			end:  end,
			name: fmt.Sprintf("dafs-striped/%dx%d", w, r),
			cfg:  cluster.Config{Clients: 1, Servers: w, DAFS: true},
		}
		var opts *dafs.Options
		if crash > 0 {
			s.name += "/crash"
			s.cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
				{At: crash, Kind: fault.ServerCrash, Node: "server1"},
			}})
			opts = &dafs.Options{CallTimeout: 5 * sim.Millisecond}
		}
		s.drv = func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
			pool, err := c.DialDAFSAll(p, 0, opts)
			if err != nil {
				return nil, err
			}
			d := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: scriptStripe, Width: w, Replicas: r})
			if crash > 0 {
				d.Retry = retry
			}
			return d, nil
		}
		return s
	}
	stacks := []stack{
		{name: "mem", end: 9362738, cfg: cluster.Config{Clients: 1},
			drv: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				return NewMemDriver(c.ClientNodes[0], c.Store, nil), nil
			}},
		{name: "dafs", end: 47717310, cfg: cluster.Config{Clients: 1, DAFS: true}, // the core at width 1
			drv: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				cl, err := c.DialDAFS(p, 0, nil)
				return NewDAFSDriver(cl), err
			}},
		striped(3, 1, 0, 43271168),
		striped(4, 2, 0, 57568985),
		striped(4, 2, 20*sim.Millisecond, 58037813),
		{name: "nfs", end: 93007993, cfg: cluster.Config{Clients: 1, NFS: true},
			drv: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				m, err := c.MountNFS(p, 0, nil)
				return NewNFSDriver(m), err
			}},
		{name: "nfs-striped/3", end: 81857908, cfg: cluster.Config{Clients: 1, Servers: 3, NFS: true},
			drv: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				mounts, err := c.MountNFSAll(p, 0, nil)
				if err != nil {
					return nil, err
				}
				return NewStripedNFSDriver(mounts, layout.Striping{StripeSize: scriptStripe, Width: 3}), nil
			}},
	}
	var wantRes []int64
	var wantContents []byte
	for _, s := range stacks {
		var res []int64
		var contents []byte
		var end sim.Time
		c := cluster.New(s.cfg)
		c.K.Spawn("app", func(p *sim.Proc) {
			drv, err := s.drv(p, c)
			if err != nil {
				t.Errorf("%s: %v", s.name, err)
				return
			}
			h, err := drv.Open(p, "script", ModeRdWr|ModeCreate)
			if err != nil {
				t.Errorf("%s: open: %v", s.name, err)
				return
			}
			res, contents, end = runScript(t, p, h, ops)
			h.Close(p)
		})
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if end != s.end {
			t.Errorf("%s: script ended at %d ns, recorded %d", s.name, int64(end), int64(s.end))
		}
		if s.name == "mem" {
			wantRes, wantContents = res, contents
			continue
		}
		if len(res) != len(wantRes) {
			t.Errorf("%s: %d results, oracle has %d", s.name, len(res), len(wantRes))
			continue
		}
		for i := range res {
			if res[i] != wantRes[i] {
				t.Errorf("%s: result %d = %d, oracle %d", s.name, i, res[i], wantRes[i])
				break
			}
		}
		if !bytes.Equal(contents, wantContents) {
			t.Errorf("%s: final contents differ from the oracle's (%d vs %d bytes)", s.name, len(contents), len(wantContents))
		}
	}
}
