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

// One seeded op script over every driver stack, judged against a flat
// byte model of the file: contiguous and list reads/writes whose extents
// cross stripe boundaries (fragments on both sides of the inline/direct
// threshold), short reads at EOF, Resize, Size and Sync. Every stack must
// return the model's counts and leave the model's bytes. The files stay
// dense — a striped file with a hole reads short where the model reads
// zeros.

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

// scriptFile is what a script plays on: a driver handle, or the model.
type scriptFile interface {
	starter
	Resize(p *sim.Proc, n int64) error
	Size(p *sim.Proc) (int64, error)
	Sync(p *sim.Proc) error
}

// flatFile is the script's oracle: the file as one flat byte slice. A
// write extends it, zero-filling any gap; a read is short at EOF; a resize
// truncates or zero-extends.
type flatFile struct{ b []byte }

func (m *flatFile) Start(_ *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error) {
	switch {
	case write:
		if end := off + int64(len(buf)); end > int64(len(m.b)) {
			m.Resize(nil, end)
		}
		return doneOp(copy(m.b[off:], buf)), nil
	case off >= int64(len(m.b)):
		return doneOp(0), nil
	}
	return doneOp(copy(buf, m.b[off:])), nil
}

func (m *flatFile) Resize(_ *sim.Proc, n int64) error {
	if n <= int64(len(m.b)) {
		m.b = m.b[:n]
	} else {
		m.b = append(m.b, make([]byte, n-int64(len(m.b)))...)
	}
	return nil
}

func (m *flatFile) Size(*sim.Proc) (int64, error) { return int64(len(m.b)), nil }
func (m *flatFile) Sync(*sim.Proc) error          { return nil }

// runScript plays ops on f and returns one result per op (byte count, or
// the size for 's') plus a digest of every byte every read returned. A
// list op goes out as batch I/O over a leaf that has it, else as one
// contiguous call per segment.
func runScript(t *testing.T, p *sim.Proc, f scriptFile, ops []scriptOp) (res []int64) {
	t.Helper()
	list := func(o scriptOp, buf []byte, write bool) (int, error) {
		if h, ok := f.(*stripedHandle); ok && h.drv.dafsTransfer != nil {
			op, err := h.StartList(p, o.segs, buf, write)
			if err != nil {
				return 0, err
			}
			return op.Wait(p)
		}
		total, pos := 0, 0
		for _, s := range o.segs {
			n, err := transfer(p, f, s.Off, buf[pos:pos+int(s.Len)], write)
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
				n, err = transfer(p, f, o.off, buf, true)
			} else {
				n, err = list(o, buf, true)
			}
			v = int64(n)
		case 'r', 'R':
			buf := make([]byte, o.n)
			var n int
			if o.kind == 'r' {
				n, err = transfer(p, f, o.off, buf, false)
			} else {
				n, err = list(o, buf, false)
			}
			sum.Write(buf[:n])
			v = int64(n)
		case 't':
			err = f.Resize(p, o.off)
		case 's':
			v, err = f.Size(p)
		case 'y':
			err = f.Sync(p)
		}
		if err != nil {
			t.Errorf("op %d (%c off=%d n=%d): %v", i, o.kind, o.off, o.n, err)
			return nil
		}
		res = append(res, v)
	}
	return append(res, int64(sum.Sum64()>>1))
}

// readBack returns f's first n bytes and fewer at EOF.
func readBack(t *testing.T, p *sim.Proc, f scriptFile, n int64) []byte {
	t.Helper()
	contents := make([]byte, n)
	got, err := transfer(p, f, 0, contents, false)
	if err != nil {
		t.Errorf("final read-back: %v", err)
	}
	return contents[:got]
}

// TestScriptEveryStack pins behaviour and simulated time across the
// driver family. The end instants were recorded before the striped
// drivers were rebuilt on one dispatch core, the single-mount nfs one
// before the single-server drivers became that core at width 1, and the
// mem one when the local store became a session leaf of the core: a
// refactor that reorders, adds or drops a single RPC on any stack moves
// one of them. The striped DAFS ones were re-recorded when a list plan
// that is one run of the user buffer stopped staging: the script's lists
// of one run each pin a fresh buffer instead of copying into an op's
// staging buffer that is already pinned, as width 1 always did.
func TestScriptEveryStack(t *testing.T) {
	ops := genScript(12, 120)
	var model flatFile
	wantRes := runScript(t, nil, &model, ops)
	wantContents := readBack(t, nil, &model, wantRes[len(ops)-1]+1)

	retry := dafs.RetryPolicy{Base: 200 * sim.Microsecond, Max: sim.Millisecond, Attempts: 3}
	type stack struct {
		driverCase
		end sim.Time
	}
	striped := func(w, r int, crash, end sim.Time) stack {
		s := stack{end: end, driverCase: driverCase{
			name: fmt.Sprintf("dafs-striped/%dx%d", w, r),
			cfg:  cluster.Config{Clients: 1, Servers: w, DAFS: true},
		}}
		var opts *dafs.Options
		if crash > 0 {
			s.name += "/crash"
			s.cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
				{At: crash, Kind: fault.ServerCrash, Node: "server1"},
			}})
			opts = &dafs.Options{CallTimeout: 5 * sim.Millisecond}
		}
		s.dial = func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
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
	single := driverCases() // mem, dafs (the core at width 1), nfs
	stacks := []stack{
		{single[0], 9364238},
		{single[1], 47717310},
		striped(3, 1, 0, 44066515),
		striped(4, 2, 0, 58594546),
		striped(4, 2, 20*sim.Millisecond, 59029176),
		{single[2], 93007993},
		{driverCase{name: "nfs-striped/3", cfg: cluster.Config{Clients: 1, Servers: 3, NFS: true},
			dial: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				mounts, err := c.MountNFSAll(p, 0, nil)
				if err != nil {
					return nil, err
				}
				return NewStripedNFSDriver(mounts, layout.Striping{StripeSize: scriptStripe, Width: 3}), nil
			}}, 81857908},
	}
	for _, s := range stacks {
		var res []int64
		var contents []byte
		var end sim.Time
		s.runOn(t, func(p *sim.Proc, _ *cluster.Cluster, drv Driver) {
			h, err := drv.Open(p, "script", ModeRdWr|ModeCreate)
			if err != nil {
				t.Errorf("%s: open: %v", s.name, err)
				return
			}
			res = runScript(t, p, h, ops)
			end = p.Now()
			contents = readBack(t, p, h, wantRes[len(ops)-1]+1)
			h.Close(p)
		})
		if end != s.end {
			t.Errorf("%s: script ended at %d ns, recorded %d", s.name, int64(end), int64(s.end))
		}
		if len(res) != len(wantRes) {
			t.Errorf("%s: %d results, the model has %d", s.name, len(res), len(wantRes))
			continue
		}
		for i := range res {
			if res[i] != wantRes[i] {
				t.Errorf("%s: result %d = %d, the model's %d", s.name, i, res[i], wantRes[i])
				break
			}
		}
		if !bytes.Equal(contents, wantContents) {
			t.Errorf("%s: final contents differ from the model's (%d vs %d bytes)", s.name, len(contents), len(wantContents))
		}
	}
}
