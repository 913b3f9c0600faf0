package mpiio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/metrics"
	"dafsio/internal/sim"
)

// settledRig builds a sampled cluster of one client and servers DAFS
// servers and runs fn on the client over a striped driver with 4KB
// stripes. The metrics plane counts the credits the client's sessions
// hold, which is how the tests see flights still in the air.
func settledRig(t *testing.T, servers int, fn func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, pool []*dafs.Client)) {
	t.Helper()
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true, Metrics: metrics.Installer(sim.Millisecond)})
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, c, NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 4 << 10, Width: servers}), pool)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// settled checks that no session of client0 holds a credit — every flight
// issued was waited out — and that the NIC holds the regions it held
// before the failed operation.
func settled(t *testing.T, c *cluster.Cluster, regions int) {
	t.Helper()
	if held := c.Metrics.Value("dafs.client.client0.credits_held"); held != 0 {
		t.Errorf("%d credits still held: flights issued before the error were not waited out", held)
	}
	if got := c.NICs[0].Regions(); got != regions {
		t.Errorf("NIC holds %d regions, %d before the failed operation", got, regions)
	}
}

// A hard (non-session) error part-way through issuing a dispatch stops the
// launch, and the fragments already in the air are waited out before the
// error surfaces: their credits are back, and the pinned buffer is
// released only once the servers' RDMA from it is done.
func TestLaunchHardErrorDrainsFlights(t *testing.T) {
	settledRig(t, 4, func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, pool []*dafs.Client) {
		c.NICs[0].RegCache, drv.DirectThreshold = false, 0 // every fragment direct, the buffer pinned per call
		f, err := Open(p, nil, drv, "f", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Server 2's fragment fails at issue; servers 0 and 1 are in flight.
		pool[2].Close(p)
		regions := c.NICs[0].Regions()
		if _, err := f.WriteAt(p, 0, pattern(4*4<<10)); !errors.Is(err, dafs.ErrClosed) {
			t.Errorf("write over a closed session: %v, want ErrClosed", err)
		}
		settled(t, c, regions)
	})
}

// A batched write over a striped file that fails while its per-server
// plans are being issued hands its op back with every staging buffer it
// pinned: the NIC holds what it held before, and a repeat of the failed
// call reuses those buffers instead of registering new ones. No pin is in
// use afterwards, and the NIC holds at most the cache's 64 beside the
// sessions' rings.
func TestListIssueFailureReturnsStaging(t *testing.T) {
	settledRig(t, 4, func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, pool []*dafs.Client) {
		rings := c.NICs[0].Regions()
		f, err := Open(p, nil, drv, "f", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// 512B blocks every 2KB over 64KB: one gather plan per server.
		f.SetView(0, Vector(32, 512, 2048))
		data := pattern(32 * 512)
		if _, err := f.WriteAt(p, 0, data); err != nil {
			t.Errorf("warm-up write: %v", err)
			return
		}
		// Server 2's plan fails at issue; servers 0 and 1 are in flight.
		pool[2].Close(p)
		regions := c.NICs[0].Regions()
		if _, err := f.WriteAt(p, 0, data); !errors.Is(err, dafs.ErrClosed) {
			t.Errorf("batched write over a closed session: %v, want ErrClosed", err)
		}
		settled(t, c, regions)
		if _, err := f.WriteAt(p, 0, data); !errors.Is(err, dafs.ErrClosed) {
			t.Errorf("repeated write: %v, want ErrClosed", err)
		}
		if got := c.NICs[0].Regions(); got != regions {
			t.Errorf("the repeated failed write registered %d new regions", got-regions)
		}
		if got := c.NICs[0].Regions() - rings; got > 64 || c.NICs[0].PinsInUse() != 0 {
			t.Errorf("%d regions beside the rings (want at most the cache's 64), %d pins in use (want 0)", got, c.NICs[0].PinsInUse())
		}
	})
}

// With the registration cache off every window is registered for its op
// and deregistered when the op is given back, so a list op that skips
// unwindow, on Wait or on an issue-time failure, leaves a region behind.
// Width 1 pins the user buffer; width 4 pins its staging buffers for a
// view whose plans are several runs each, and the user buffer for a view
// inside one stripe, whose one plan is a single run. The failing write
// closes the session of the last plan it issues.
func TestListUnpinsWithoutCache(t *testing.T) {
	for _, tc := range []struct {
		name          string
		width, closed int
		view          *Datatype
	}{
		{"width 1", 1, 0, Vector(32, 512, 2048)},
		{"width 4, staged", 4, 3, Vector(32, 512, 2048)},
		{"width 4, single run", 4, 0, Vector(4, 512, 1024)},
	} {
		settledRig(t, tc.width, func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, pool []*dafs.Client) {
			c.NICs[0].RegCache = false
			f, err := Open(p, nil, drv, "f", ModeRdWr|ModeCreate, nil)
			if err != nil {
				t.Error(err)
				return
			}
			f.SetView(0, tc.view)
			data := pattern(int(tc.view.Size()))
			regions := c.NICs[0].Regions()
			if _, err := f.WriteAt(p, 0, data); err != nil {
				t.Errorf("%s: write: %v", tc.name, err)
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(p, 0, got); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: read: %v, bytes match %v", tc.name, err, bytes.Equal(got, data))
			}
			settled(t, c, regions)
			pool[tc.closed].Close(p)
			regions = c.NICs[0].Regions()
			if _, err := f.WriteAt(p, 0, data); !errors.Is(err, dafs.ErrClosed) {
				t.Errorf("%s: write over a closed session: %v, want ErrClosed", tc.name, err)
			}
			settled(t, c, regions)
		})
	}
}

// PrepareReshape attaches a shadow handle per open file. When a later
// file's shadow open fails — here its epoch-tagged name no longer fits a
// request — the shadows already attached are closed and detached, so
// writes stop mirroring onto the abandoned layout.
func TestReshapePrepareAbortDetachesShadows(t *testing.T) {
	settledRig(t, 3, func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, _ []*dafs.Client) {
		// The longest name a DAFS request carries: the request body holds
		// 512 + MaxInline bytes, and a name costs its length plus two.
		long := strings.Repeat("n", 512+8192-2)
		var files []*File
		for _, name := range []string{"s", long} {
			f, err := Open(p, nil, drv, name, ModeRdWr|ModeCreate, nil)
			if err != nil {
				t.Errorf("open %.8s: %v", name, err)
				return
			}
			files = append(files, f)
		}
		_, epoch := c.AddServer()
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		regions := c.NICs[0].Regions()
		if _, err := drv.PrepareReshape(p, pool, layout.Striping{StripeSize: 4 << 10, Width: 4}, epoch); !errors.Is(err, ErrReshape) {
			t.Errorf("prepare: %v, want ErrReshape", err)
		}
		settled(t, c, regions)
		if drv.next != nil {
			t.Error("failed prepare left a reshape in progress")
		}
		for _, h := range drv.handles {
			if h.shadow != nil {
				t.Errorf("%.8s still mirrors onto the abandoned layout", h.name)
			}
		}
		if _, err := files[0].WriteAt(p, 0, pattern(16<<10)); err != nil {
			t.Errorf("write after the failed prepare: %v", err)
		}
		if obj, err := c.Stores[3].Lookup(layout.EpochName("s", epoch)); err != nil {
			t.Errorf("the attached shadow's object is gone: %v", err)
		} else if obj.Size() != 0 {
			t.Errorf("the abandoned layout received %d bytes", obj.Size())
		}
	})
}
