package nfs

import (
	"bytes"
	"fmt"
	"testing"

	"dafsio/internal/fabric"
	"dafsio/internal/kstack"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
)

type rig struct {
	k      *sim.Kernel
	prof   *model.Profile
	fab    *fabric.Fabric
	store  *storage.Store
	srv    *Server
	stacks []*kstack.Stack
}

func newRig(nclients int) *rig {
	prof := model.CLAN1998()
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	srvStack := kstack.New(fab.AddNode("server"), prof, k)
	store := storage.NewStore()
	srv := NewServer(srvStack, prof, k, store, nil)
	r := &rig{k: k, prof: prof, fab: fab, store: store, srv: srv}
	for i := 0; i < nclients; i++ {
		r.stacks = append(r.stacks, kstack.New(fab.AddNode(fmt.Sprintf("client%d", i)), prof, k))
	}
	return r
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc, c *Client)) {
	t.Helper()
	r.k.Spawn("client", func(p *sim.Proc) {
		c, err := Mount(p, r.stacks[0], r.srv, nil)
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		fn(p, c)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func pat(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%97)
	}
	return b
}

func TestMountAndNull(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		if c.opts.RSize != 32768 || c.opts.WSize != 32768 {
			t.Errorf("defaults rsize=%d wsize=%d", c.opts.RSize, c.opts.WSize)
		}
	})
}

func TestNamespace(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		if _, _, err := c.Lookup(p, "x"); err != ErrNoEnt {
			t.Errorf("lookup missing: %v", err)
		}
		fh, _, err := c.Create(p, "x")
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, err := c.Create(p, "x"); err != ErrExist {
			t.Errorf("dup create: %v", err)
		}
		if err := c.Remove(p, "x"); err != nil {
			t.Error(err)
		}
		if _, err := c.Getattr(p, fh); err != ErrStale {
			t.Errorf("stale: %v", err)
		}
	})
}

func TestReadWriteSingleRPC(t *testing.T) {
	r := newRig(1)
	want := pat(1000, 3)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		if n, err := c.Write(p, fh, 10, want); err != nil || n != len(want) {
			t.Errorf("write n=%d err=%v", n, err)
		}
		got := make([]byte, len(want))
		if n, err := c.Read(p, fh, 10, got); err != nil || n != len(want) {
			t.Errorf("read n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data mismatch")
		}
	})
}

func TestReadWriteMultiRPC(t *testing.T) {
	r := newRig(1)
	const n = 200000 // > 6 RPCs at default wsize
	want := pat(n, 5)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		if wn, err := c.Write(p, fh, 0, want); err != nil || wn != n {
			t.Errorf("write n=%d err=%v", wn, err)
		}
		attr, _ := c.Getattr(p, fh)
		if attr.Size != n {
			t.Errorf("size %d", attr.Size)
		}
		got := make([]byte, n)
		if rn, err := c.Read(p, fh, 0, got); err != nil || rn != n {
			t.Errorf("read n=%d err=%v", rn, err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data mismatch")
		}
		if c.Stats().RPCs < 12 {
			t.Errorf("RPCs = %d, expected chunked transfers", c.Stats().RPCs)
		}
	})
}

func TestShortReadAtEOF(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		c.Write(p, fh, 0, pat(100, 1))
		buf := make([]byte, 200)
		if n, err := c.Read(p, fh, 40, buf); err != nil || n != 60 {
			t.Errorf("short read n=%d err=%v", n, err)
		}
		if n, err := c.Read(p, fh, 500, buf); err != nil || n != 0 {
			t.Errorf("past-EOF n=%d err=%v", n, err)
		}
	})
}

func TestTruncateAndCommit(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		c.Write(p, fh, 0, pat(100, 1))
		if err := c.Setattr(p, fh, 10); err != nil {
			t.Error(err)
		}
		attr, _ := c.Getattr(p, fh)
		if attr.Size != 10 {
			t.Errorf("size %d", attr.Size)
		}
		if err := c.Commit(p, fh); err != nil {
			t.Error(err)
		}
	})
}

// TestNFSBurnsClientCPUPerByte pins the baseline's cost structure: client
// CPU time scales with bytes moved.
func TestNFSBurnsClientCPUPerByte(t *testing.T) {
	measure := func(nbytes int) sim.Time {
		r := newRig(1)
		var cpu sim.Time
		r.run(t, func(p *sim.Proc, c *Client) {
			fh, _, _ := c.Create(p, "f")
			node := c.Node()
			before := node.CPU.BusyTime()
			if _, err := c.Write(p, fh, 0, pat(nbytes, 1)); err != nil {
				t.Error(err)
			}
			cpu = node.CPU.BusyTime() - before
		})
		return cpu
	}
	small, big := measure(64*1024), measure(512*1024)
	if big < small*5 {
		t.Fatalf("client CPU not per-byte: 64K=%v 512K=%v", small, big)
	}
}

func TestConcurrentMounts(t *testing.T) {
	const nc = 3
	r := newRig(nc)
	r.store.Create("shared")
	for i := 0; i < nc; i++ {
		i := i
		st := r.stacks[i]
		r.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			c, err := Mount(p, st, r.srv, nil)
			if err != nil {
				t.Errorf("mount %d: %v", i, err)
				return
			}
			fh, _, err := c.Lookup(p, "shared")
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
				return
			}
			if _, err := c.Write(p, fh, int64(i)*50000, pat(50000, byte(i))); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	f, _ := r.store.Lookup("shared")
	if f.Size() != nc*50000 {
		t.Fatalf("size %d", f.Size())
	}
	for i := 0; i < nc; i++ {
		if !bytes.Equal(stored(f, int64(i)*50000, 50000), pat(50000, byte(i))) {
			t.Fatalf("stripe %d corrupted", i)
		}
	}
}

func TestNfsDeterminism(t *testing.T) {
	run := func() string {
		r := newRig(1)
		var s string
		r.run(t, func(p *sim.Proc, c *Client) {
			fh, _, _ := c.Create(p, "f")
			for i := 0; i < 5; i++ {
				c.Write(p, fh, int64(i*1000), pat(1000, byte(i)))
				s += fmt.Sprintf("%v ", p.Now())
			}
		})
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestUncachedServerSlower(t *testing.T) {
	measure := func(withDisk bool) sim.Time {
		prof := model.CLAN1998()
		k := sim.NewKernel()
		fab := fabric.New(k, prof)
		srvStack := kstack.New(fab.AddNode("server"), prof, k)
		store := storage.NewStore()
		var disk *storage.Disk
		if withDisk {
			disk = storage.NewDisk(k, prof.DiskSeek, prof.DiskBW)
		}
		srv := NewServer(srvStack, prof, k, store, disk)
		cst := kstack.New(fab.AddNode("client"), prof, k)
		var elapsed sim.Time
		k.Spawn("c", func(p *sim.Proc) {
			c, err := Mount(p, cst, srv, nil)
			if err != nil {
				t.Error(err)
				return
			}
			fh, _, _ := c.Create(p, "f")
			start := p.Now()
			c.Write(p, fh, 0, pat(200000, 1))
			elapsed = p.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if cached, uncached := measure(false), measure(true); uncached <= cached {
		t.Fatalf("uncached %v not slower than cached %v", uncached, cached)
	}
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
