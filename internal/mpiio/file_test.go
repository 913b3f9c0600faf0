package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/mpi"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
)

// driverCase is one single-server driver stack: a serial (rank-less)
// scenario runs against each so the MPI-IO layer is exercised over every
// transport.
type driverCase struct {
	name string
	cfg  cluster.Config
	dial func(p *sim.Proc, c *cluster.Cluster) (Driver, error)
}

func driverCases() []driverCase {
	return []driverCase{
		{name: "mem", cfg: cluster.Config{Clients: 1},
			dial: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				return NewMemDriver(c.ClientNodes[0], c.Store), nil
			}},
		{name: "dafs", cfg: cluster.Config{Clients: 1, DAFS: true},
			dial: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				cl, err := c.DialDAFS(p, 0, nil)
				return NewDAFSDriver(cl), err
			}},
		{name: "nfs", cfg: cluster.Config{Clients: 1, NFS: true},
			dial: func(p *sim.Proc, c *cluster.Cluster) (Driver, error) {
				m, err := c.MountNFS(p, 0, nil)
				return NewNFSDriver(m), err
			}},
	}
}

// run builds the case's cluster and runs fn over its driver.
func (dc driverCase) run(t *testing.T, fn func(p *sim.Proc, drv Driver)) {
	t.Helper()
	dc.runOn(t, func(p *sim.Proc, _ *cluster.Cluster, drv Driver) { fn(p, drv) })
}

// runOn is run, with the cluster: c.Store is the store the file lands in
// on every stack.
func (dc driverCase) runOn(t *testing.T, fn func(p *sim.Proc, c *cluster.Cluster, drv Driver)) {
	t.Helper()
	c := cluster.New(dc.cfg)
	c.K.Spawn("app", func(p *sim.Proc) {
		drv, err := dc.dial(p, c)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, c, drv)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestObjectSizeBound: every stack refuses a 1-byte write and a size at
// 2^62, far past storage.MaxObject, before a page is touched — the store's
// page index grows with the offset, so an unchecked write would ask it for
// 2^42 page slots.
func TestObjectSizeBound(t *testing.T) {
	const far = int64(1) << 62
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.runOn(t, func(p *sim.Proc, c *cluster.Cluster, drv Driver) {
				f, err := Open(p, nil, drv, "big", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close(p)
				if n, err := f.WriteAt(p, far, []byte{1}); err == nil {
					t.Errorf("write at 2^62: n=%d, no error", n)
				}
				if err := f.SetSize(p, far); err == nil {
					t.Error("SetSize(2^62): no error")
				}
				obj, err := c.Store.Lookup("big")
				switch {
				case err != nil:
					t.Error(err)
				case obj.Pages() != 0 || obj.Size() != 0:
					t.Errorf("the file holds %d pages, size %d", obj.Pages(), obj.Size())
				}
			})
		})
	}
}

func body(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i%113)
	}
	return b
}

func TestOpenModes(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				// Missing file without CREATE.
				if _, err := Open(p, nil, drv, "missing", ModeRdWr, nil); err != ErrNoEnt {
					t.Errorf("open missing: %v", err)
				}
				// Create.
				f, err := Open(p, nil, drv, "f", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				f.Close(p)
				// EXCL on existing.
				if _, err := Open(p, nil, drv, "f", ModeRdWr|ModeCreate|ModeExcl, nil); err != ErrExist {
					t.Errorf("excl: %v", err)
				}
				// Bad mode combinations.
				if _, err := Open(p, nil, drv, "f", ModeRdOnly|ModeRdWr, nil); err != ErrBadMode {
					t.Errorf("two access modes: %v", err)
				}
				if _, err := Open(p, nil, drv, "f", ModeCreate, nil); err != ErrBadMode {
					t.Errorf("no access mode: %v", err)
				}
				if _, err := Open(p, nil, drv, "f", ModeRdOnly|ModeCreate, nil); err != ErrBadMode {
					t.Errorf("rdonly+create: %v", err)
				}
				// Access enforcement.
				ro, _ := Open(p, nil, drv, "f", ModeRdOnly, nil)
				if _, err := ro.WriteAt(p, 0, []byte("x")); err != ErrReadOnly {
					t.Errorf("write on rdonly: %v", err)
				}
				ro.Close(p)
				wo, _ := Open(p, nil, drv, "f", ModeWrOnly, nil)
				if _, err := wo.ReadAt(p, 0, make([]byte, 1)); err != ErrWriteOnly {
					t.Errorf("read on wronly: %v", err)
				}
				wo.Close(p)
			})
		})
	}
}

func TestContigReadWriteAllDrivers(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				f, err := Open(p, nil, drv, "data", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close(p)
				want := body(100000, 0x42) // beyond inline/rsize limits
				if n, err := f.WriteAt(p, 777, want); err != nil || n != len(want) {
					t.Errorf("write: n=%d err=%v", n, err)
				}
				if size, err := f.GetSize(p); err != nil || size != int64(777+len(want)) {
					t.Errorf("size: %d %v", size, err)
				}
				got := make([]byte, len(want))
				if n, err := f.ReadAt(p, 777, got); err != nil || n != len(want) {
					t.Errorf("read: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got, want) {
					t.Error("data mismatch")
				}
				// Short read at EOF.
				if n, err := f.ReadAt(p, int64(777+len(want)-10), got[:50]); err != nil || n != 10 {
					t.Errorf("tail read: n=%d err=%v", n, err)
				}
			})
		})
	}
}

func TestVectorViewRoundTrip(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				f, _ := Open(p, nil, drv, "v", ModeRdWr|ModeCreate, nil)
				defer f.Close(p)
				// Interleave: this "rank" owns 1KB blocks every 4KB.
				ft := Vector(8, 1024, 4096)
				if err := f.SetView(100, ft); err != nil {
					t.Error(err)
					return
				}
				want := body(8*1024, 0x7)
				if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
					t.Errorf("view write: n=%d err=%v", n, err)
				}
				got := make([]byte, len(want))
				if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) {
					t.Errorf("view read: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got, want) {
					t.Error("view data mismatch")
				}
				// The physical layout has the data at disp+stride*i.
				f.SetView(0, nil)
				blk := make([]byte, 1024)
				f.ReadAt(p, 100+2*4096, blk)
				if !bytes.Equal(blk, want[2*1024:3*1024]) {
					t.Error("physical placement wrong")
				}
				// Holes stay zero.
				hole := make([]byte, 10)
				f.ReadAt(p, 100+1024, hole)
				if !bytes.Equal(hole, make([]byte, 10)) {
					t.Error("hole not zero")
				}
			})
		})
	}
}

func TestSievingEquivalence(t *testing.T) {
	// Sieving on/off must produce identical file contents and read-backs.
	for _, sieve := range []bool{false, true} {
		name := map[bool]string{false: "list", true: "sieve"}[sieve]
		t.Run(name, func(t *testing.T) {
			c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
			c.K.Spawn("app", func(p *sim.Proc) {
				cl, err := c.DialDAFS(p, 0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				drv := NewDAFSDriver(cl)
				f, _ := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, &Hints{Sieving: sieve, SieveBufSize: 8192})
				// Pre-fill so write holes must be preserved.
				backdrop := body(64*1024, 0xFF)
				f.WriteAt(p, 0, backdrop)
				f.SetView(0, Vector(32, 512, 2048))
				want := body(32*512, 0x3)
				if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
					t.Errorf("write: n=%d err=%v", n, err)
				}
				got := make([]byte, len(want))
				if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) {
					t.Errorf("read: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got, want) {
					t.Error("data mismatch")
				}
				// Holes must retain the backdrop (read-modify-write).
				f.SetView(0, nil)
				holes := make([]byte, 512)
				f.ReadAt(p, 512, holes)
				if !bytes.Equal(holes, backdrop[512:1024]) {
					t.Error("sieving clobbered the holes")
				}
				f.Close(p)
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
		// The window's edges: a read past EOF, a write that extends the
		// file, and segments larger than the window.
		t.Run(name+"-edges", func(t *testing.T) {
			c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
			c.K.Spawn("app", func(p *sim.Proc) {
				cl, err := c.DialDAFS(p, 0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				f, _ := Open(p, nil, NewDAFSDriver(cl), "e", ModeRdWr|ModeCreate, &Hints{Sieving: sieve, SieveBufSize: 8192})
				f.WriteAt(p, 0, body(10000, 0xFF))
				f.SetView(0, Vector(32, 512, 2048))
				// Five blocks lie below the 10,000-byte end.
				if n, err := f.ReadAt(p, 0, make([]byte, 32*512)); err != nil || n != 5*512 {
					t.Errorf("read past EOF: n=%d err=%v, want %d", n, err, 5*512)
				}
				want := body(32*512, 0x3)
				if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
					t.Errorf("extending write: n=%d err=%v", n, err)
				}
				// A hole past the old end reads back as zeros.
				f.SetView(0, nil)
				hole := body(40960-39424, 0x7)
				if n, err := f.ReadAt(p, 39424, hole); err != nil || n != len(hole) || !bytes.Equal(hole, make([]byte, len(hole))) {
					t.Errorf("hole past the old end: n=%d err=%v, want zeros", n, err)
				}
				// Each 10,000-byte segment is larger than the window and
				// moves on its own.
				f.SetView(0, Vector(2, 10000, 20000))
				big := body(20000, 0x5)
				if n, err := f.WriteAt(p, 0, big); err != nil || n != len(big) {
					t.Errorf("oversized write: n=%d err=%v", n, err)
				}
				got := make([]byte, len(big))
				if n, err := f.ReadAt(p, 0, got); err != nil || n != len(big) || !bytes.Equal(got, big) {
					t.Errorf("oversized read: n=%d err=%v, data equal %v", n, err, bytes.Equal(got, big))
				}
				f.Close(p)
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			// The sieved run's driver ops and copies fix its end instant.
			if end := sim.Time(4_221_391); sieve && c.K.Now() != end {
				t.Errorf("sieved run ended at %d, want %d", c.K.Now(), end)
			}
		})
	}
}

func TestFilePointerAndSeek(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				f, _ := Open(p, nil, drv, "ptr", ModeRdWr|ModeCreate, nil)
				defer f.Close(p)
				f.Write(p, []byte("hello "))
				f.Write(p, []byte("world"))
				if f.Tell() != 11 {
					t.Errorf("tell %d", f.Tell())
				}
				if _, err := f.Seek(p, 0, SeekSet); err != nil {
					t.Error(err)
				}
				buf := make([]byte, 11)
				f.Read(p, buf)
				if string(buf) != "hello world" {
					t.Errorf("got %q", buf)
				}
				if pos, _ := f.Seek(p, -5, SeekEnd); pos != 6 {
					t.Errorf("seek end: %d", pos)
				}
				f.Read(p, buf[:5])
				if string(buf[:5]) != "world" {
					t.Errorf("got %q", buf[:5])
				}
				if pos, _ := f.Seek(p, -3, SeekCur); pos != 8 {
					t.Errorf("seek cur: %d", pos)
				}
				if _, err := f.Seek(p, -100, SeekSet); err != ErrNegative {
					t.Errorf("negative seek: %v", err)
				}
			})
		})
	}
}

func TestSetSizeAndSync(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				f, _ := Open(p, nil, drv, "t", ModeRdWr|ModeCreate, nil)
				defer f.Close(p)
				f.WriteAt(p, 0, body(1000, 1))
				if err := f.SetSize(p, 100); err != nil {
					t.Error(err)
				}
				if size, _ := f.GetSize(p); size != 100 {
					t.Errorf("size %d", size)
				}
				if err := f.Sync(p); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

func TestNonblockingIO(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				f, _ := Open(p, nil, drv, "nb", ModeRdWr|ModeCreate, nil)
				defer f.Close(p)
				const chunk = 20000
				var reqs []*Request
				for i := 0; i < 4; i++ {
					reqs = append(reqs, f.IwriteAt(p, int64(i*chunk), body(chunk, byte(i))))
				}
				for i, r := range reqs {
					if n, err := r.Wait(p); err != nil || n != chunk {
						t.Errorf("iwrite %d: n=%d err=%v", i, n, err)
					}
				}
				got := make([]byte, chunk)
				rd := f.IreadAt(p, chunk, got)
				if n, err := rd.Wait(p); err != nil || n != chunk {
					t.Errorf("iread: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got, body(chunk, 1)) {
					t.Error("iread data mismatch")
				}
			})
		})
	}
}

func TestDeleteAndDeleteOnClose(t *testing.T) {
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			dc.run(t, func(p *sim.Proc, drv Driver) {
				f, _ := Open(p, nil, drv, "tmp", ModeRdWr|ModeCreate|ModeDeleteOnClose, nil)
				f.WriteAt(p, 0, []byte("x"))
				f.Close(p)
				if _, err := Open(p, nil, drv, "tmp", ModeRdWr, nil); err != ErrNoEnt {
					t.Errorf("delete-on-close: %v", err)
				}
				g, _ := Open(p, nil, drv, "gone", ModeRdWr|ModeCreate, nil)
				g.Close(p)
				if err := Delete(p, drv, "gone"); err != nil {
					t.Errorf("delete: %v", err)
				}
				if err := Delete(p, drv, "gone"); err != ErrNoEnt {
					t.Errorf("double delete: %v", err)
				}
			})
		})
	}
}

// TestCollectiveDeleteOnClose: a delete-on-close file opened by every rank
// is deleted once, by rank 0, so every rank's Close succeeds.
func TestCollectiveDeleteOnClose(t *testing.T) {
	for _, nfs := range []bool{false, true} {
		name := map[bool]string{false: "dafs", true: "nfs"}[nfs]
		t.Run(name, func(t *testing.T) {
			c := runWorld(t, 3, nfs, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
				f, err := Open(p, r, drv, "tmp", ModeRdWr|ModeCreate|ModeDeleteOnClose, nil)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				f.WriteAt(p, int64(r.ID()), []byte("x"))
				if err := f.Close(p); err != nil {
					t.Errorf("rank %d close: %v", r.ID(), err)
				}
			})
			if _, err := c.Store.Lookup("tmp"); err == nil {
				t.Error("file survived its close")
			}
		})
	}
}

func TestClosedFileRejectsOps(t *testing.T) {
	dc := driverCases()[0]
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "c", ModeRdWr|ModeCreate, nil)
		f.Close(p)
		if _, err := f.ReadAt(p, 0, make([]byte, 1)); err != ErrClosed {
			t.Errorf("read: %v", err)
		}
		if _, err := f.WriteAt(p, 0, []byte("x")); err != ErrClosed {
			t.Errorf("write: %v", err)
		}
		if err := f.SetView(0, nil); err != ErrClosed {
			t.Errorf("setview: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("double close: %v", err)
		}
	})
}

func TestDafsDriverThreshold(t *testing.T) {
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewDAFSDriver(cl)
		f, _ := Open(p, nil, drv, "th", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		f.WriteAt(p, 0, body(4096, 1))      // inline
		f.WriteAt(p, 4096, body(100000, 2)) // direct
		f.ReadAt(p, 0, make([]byte, 2048))  // inline
		f.ReadAt(p, 0, make([]byte, 50000)) // direct
		st := cl.Stats()
		if st.InlineWriteBytes != 4096 || st.DirectWriteBytes != 100000 {
			t.Errorf("write split: inline=%d direct=%d", st.InlineWriteBytes, st.DirectWriteBytes)
		}
		if st.InlineReadBytes != 2048 || st.DirectReadBytes != 50000 {
			t.Errorf("read split: inline=%d direct=%d", st.InlineReadBytes, st.DirectReadBytes)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationCache(t *testing.T) {
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewDAFSDriver(cl)
		f, _ := Open(p, nil, drv, "rc", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		nic := c.NICs[0]
		before := nic.Regions()
		buf := body(100000, 1)
		for i := 0; i < 5; i++ {
			f.WriteAt(p, 0, buf)
		}
		if got := nic.Regions() - before; got != 1 {
			t.Errorf("five writes of one buffer added %d regions, want 1", got)
		}
		// A different buffer misses.
		f.WriteAt(p, 0, body(100000, 2))
		if got := nic.Regions() - before; got != 2 {
			t.Errorf("second buffer: %d regions added, want 2", got)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	// List I/O under the identity layout uses the user buffer as its RDMA
	// window, registered once through the cache, and stages nothing; a
	// wider layout packs into its ops' staging buffers instead.
	for _, width := range []int{1, 2} {
		c := cluster.New(cluster.Config{Clients: 1, Servers: width, DAFS: true})
		c.K.Spawn("app", func(p *sim.Proc) {
			pool, err := c.DialDAFSAll(p, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 4 << 10, Width: width})
			f, _ := Open(p, nil, drv, "rc", ModeRdWr|ModeCreate, nil)
			defer f.Close(p)
			before := c.NICs[0].Regions()
			f.SetView(0, Vector(64, 1024, 2048))
			buf := body(64<<10, 1)
			for i := 0; i < 3; i++ {
				if _, err := f.WriteAt(p, 0, buf); err != nil {
					t.Errorf("width %d: list write: %v", width, err)
				}
				if _, err := f.ReadAt(p, 0, buf); err != nil {
					t.Errorf("width %d: list read: %v", width, err)
				}
			}
			staged := stagingBuffers(drv)
			switch {
			case width == 1 && (c.NICs[0].Regions()-before != 1 || staged > 0):
				t.Errorf("width 1: %d regions added, %d staging buffers; want one region and no staging", c.NICs[0].Regions()-before, staged)
			case width > 1 && staged == 0:
				t.Errorf("width %d: list I/O staged nothing", width)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentPinsKeepTheBound: 80 nonblocking direct writes of
// distinct 64 KB buffers start at once, so 80 procs miss the NIC's
// pin-down cache together. The cache still holds at most its 64 entries,
// none of them evicted while the server's RDMA read of it is in flight;
// the 16 writes that find every entry in use pin outside the cache, and
// after the waits nothing is in use and the NIC holds the sessions'
// rings and the cache's 64 pins.
func TestConcurrentPinsKeepTheBound(t *testing.T) {
	const writes, size = 80, 64 << 10
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		f, err := Open(p, nil, NewDAFSDriver(cl), "burst", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close(p)
		nic := c.NICs[0]
		rings := nic.Regions()
		reqs := make([]*Request, writes)
		for i := range reqs {
			reqs[i] = f.IwriteAt(p, int64(i)*size, body(size, byte(i)))
		}
		failed := 0
		for i, req := range reqs {
			if n, err := req.Wait(p); n != size || err != nil {
				t.Errorf("write %d: n=%d err=%v", i, n, err)
				failed++
			}
		}
		if got := nic.Regions() - rings; failed != 0 || got != 64 || nic.PinsInUse() != 0 {
			t.Errorf("%d writes failed, %d regions beside the rings (want 64), %d pins in use (want 0)", failed, got, nic.PinsInUse())
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegCacheSavesTime(t *testing.T) {
	measure := func(cache bool) sim.Time {
		c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
		var elapsed sim.Time
		c.K.Spawn("app", func(p *sim.Proc) {
			cl, err := c.DialDAFS(p, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			drv := NewDAFSDriver(cl)
			c.NICs[0].RegCache = cache
			f, _ := Open(p, nil, drv, "rc", ModeRdWr|ModeCreate, nil)
			buf := body(1<<20, 1)
			start := p.Now()
			for i := 0; i < 8; i++ {
				f.WriteAt(p, 0, buf)
			}
			elapsed = p.Now() - start
			f.Close(p)
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	with, without := measure(true), measure(false)
	if with >= without {
		t.Fatalf("reg cache did not help: with=%v without=%v", with, without)
	}
}

func TestMixedTransportsShareOneServer(t *testing.T) {
	// DAFS and NFS clients against the same store: writes through one
	// protocol are visible through the other.
	c := cluster.New(cluster.Config{Clients: 2, DAFS: true, NFS: true})
	done := sim.NewFuture[struct{}](c.K)
	c.K.Spawn("dafs-app", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewDAFSDriver(cl)
		f, err := Open(p, nil, drv, "cross", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, 0, body(5000, 0xAB))
		f.Close(p)
		done.Set(struct{}{})
	})
	c.K.Spawn("nfs-app", func(p *sim.Proc) {
		done.Get(p)
		cl, err := c.MountNFS(p, 1, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewNFSDriver(cl)
		f, err := Open(p, nil, drv, "cross", ModeRdOnly, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 5000)
		if n, err := f.ReadAt(p, 0, got); err != nil || n != 5000 {
			t.Errorf("cross read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, body(5000, 0xAB)) {
			t.Error("cross-protocol data mismatch")
		}
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestViewRejectsZeroSizeFiletype(t *testing.T) {
	dc := driverCases()[0]
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "z", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		if err := f.SetView(0, Contiguous(0)); err == nil {
			t.Error("zero-size filetype accepted")
		}
		if err := f.SetView(-1, nil); err != ErrNegative {
			t.Errorf("negative disp: %v", err)
		}
	})
}

func TestManyFilesOneSession(t *testing.T) {
	dc := driverCases()[1] // dafs
	dc.run(t, func(p *sim.Proc, drv Driver) {
		var files []*File
		for i := 0; i < 5; i++ {
			f, err := Open(p, nil, drv, fmt.Sprintf("multi%d", i), ModeRdWr|ModeCreate, nil)
			if err != nil {
				t.Error(err)
				return
			}
			f.WriteAt(p, 0, body(1000, byte(i)))
			files = append(files, f)
		}
		for i, f := range files {
			got := make([]byte, 1000)
			f.ReadAt(p, 0, got)
			if !bytes.Equal(got, body(1000, byte(i))) {
				t.Errorf("file %d mismatch", i)
			}
			f.Close(p)
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
