package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// stripedListRig builds an N-server cluster and opens a (possibly
// replicated) striped file from client 0 with the given hints, a call
// deadline, and a redial policy — the configuration the batched failover
// paths need.
func stripedListRig(t *testing.T, servers, replicas int, retry dafs.RetryPolicy, hints *Hints,
	fn func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster)) {
	t.Helper()
	const stripe = 4 << 10
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers, Replicas: replicas})
		drv.Retry = retry
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, hints)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, f, drv, c)
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// dumpStores snapshots every object every server holds, keyed by
// server:name — the physical ground truth a path-equivalence test compares.
func dumpStores(c *cluster.Cluster, names []string) map[string][]byte {
	out := make(map[string][]byte)
	for s, store := range c.Stores {
		for _, name := range names {
			obj, err := store.Lookup(name)
			if err != nil {
				continue
			}
			b := make([]byte, obj.Size())
			obj.ReadAt(b, 0)
			out[fmt.Sprintf("%d:%s", s, name)] = b
		}
	}
	return out
}

// TestStripedBatchListEquivalence: the per-server batch path and the
// per-fragment path must leave byte-identical objects on every server
// (primaries and replica mirrors) and read back identically, for a
// noncontiguous view whose segments cross stripe boundaries.
func TestStripedBatchListEquivalence(t *testing.T) {
	const servers, replicas = 3, 2
	run := func(noBatch bool) (map[string][]byte, []byte) {
		var stores map[string][]byte
		var readBack []byte
		stripedListRig(t, servers, replicas, dafs.RetryPolicy{}, &Hints{NoBatch: noBatch},
			func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
				f.SetView(64, Vector(40, 700, 2100))
				want := pattern(40 * 700)
				if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
					t.Errorf("write: n=%d err=%v", n, err)
				}
				got := make([]byte, len(want))
				if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) {
					t.Errorf("read: n=%d err=%v", n, err)
				}
				readBack = got
				stores = dumpStores(c, []string{"s", layout.ReplicaName("s", 1)})
			})
		return stores, readBack
	}
	batchStores, batchRead := run(false)
	listStores, listRead := run(true)
	if !bytes.Equal(batchRead, listRead) {
		t.Fatal("batch and per-fragment paths read back differently")
	}
	if len(batchStores) != len(listStores) {
		t.Fatalf("object sets differ: %d vs %d", len(batchStores), len(listStores))
	}
	for k, v := range listStores {
		if !bytes.Equal(batchStores[k], v) {
			t.Fatalf("object %s differs between batch and per-fragment paths", k)
		}
	}
}

// TestStripedBatchFasterThanPerSeg: at width > 1, fine-grained
// noncontiguous access through the gather planner (one batch request per
// server) must beat one DAFS operation per fragment — the T6 batch win
// restored over stripes.
func TestStripedBatchFasterThanPerSeg(t *testing.T) {
	measure := func(noBatch bool) sim.Time {
		var elapsed sim.Time
		stripedListRig(t, 2, 1, dafs.RetryPolicy{}, &Hints{NoBatch: noBatch},
			func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
				f.SetView(0, Vector(256, 512, 2048))
				buf := pattern(256 * 512)
				f.WriteAt(p, 0, buf) // warm
				start := p.Now()
				if _, err := f.WriteAt(p, 0, buf); err != nil {
					t.Error(err)
				}
				elapsed = p.Now() - start
			})
		return elapsed
	}
	batch := measure(false)
	perSeg := measure(true)
	if batch >= perSeg {
		t.Fatalf("striped batch (%v) not faster than per-fragment (%v)", batch, perSeg)
	}
}

// TestStripedBatchFailover: with replication, a server crash between
// batched noncontiguous writes costs a deadline, then the plan completes
// on the surviving replicas and every byte reads back through the batched
// read-any path.
func TestStripedBatchFailover(t *testing.T) {
	const servers, replicas = 3, 2
	retry := dafs.RetryPolicy{Base: 100 * sim.Microsecond, Max: 400 * sim.Microsecond, Attempts: 2}
	stripedListRig(t, servers, replicas, retry, nil,
		func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
			f.SetView(0, Vector(24, 1024, 2048))
			data := pattern(24 * 1024)
			half := len(data) / 2
			if _, err := f.WriteAt(p, 0, data[:half]); err != nil {
				t.Fatalf("pre-crash write: %v", err)
			}
			crashServer(c, 1)
			if _, err := f.WriteAt(p, int64(half), data[half:]); err != nil {
				t.Fatalf("post-crash write: %v", err)
			}
			got := make([]byte, len(data))
			if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) {
				t.Fatalf("read-back = %d, %v", n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read-back mismatch after batched failover")
			}
		})
}

// TestStripedBatchExclusionGauge: a batched write that loses a replica
// must exclude it the same way a contiguous one does — through exclude(),
// so the excluded gauge reads 1 while server 1 is stale, the completed
// re-silver's re-admission returns it to 0, and it never goes negative.
// (The batch path once set the flag directly: the gauge stayed 0 and the
// re-admission then drove it to -1.)
func TestStripedBatchExclusionGauge(t *testing.T) {
	crashRestartRig(t, defaultResilverRate, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		gauge := func() int64 { return c.Metrics.Value("mpiio.striped.client0.excluded") }
		watching := true
		c.K.Spawn("gauge-watch", func(wp *sim.Proc) {
			for ; watching; wp.Wait(50 * sim.Microsecond) {
				if g := gauge(); g < 0 || drv.excluded[1] && g != 1 {
					t.Errorf("excluded gauge = %d with server 1 excluded = %v", g, drv.excluded[1])
					return
				}
			}
		})
		defer func() { watching = false }()
		f.SetView(0, Vector(1<<20, 1024, 2048)) // every write is a segment list
		if !writeThroughOutage(t, p, f, drv, pattern(256<<10)) {
			return
		}
		for i := 0; (drv.healing[1] != nil || drv.excluded[1]) && i < 1000; i++ {
			p.Wait(sim.Millisecond)
		}
		if drv.excluded[1] {
			t.Error("still excluded after the re-silver finished")
		}
		if g := gauge(); g != 0 {
			t.Errorf("excluded gauge = %d after re-admission, want 0", g)
		}
	})
}

// TestStripedBatchUnreplicatedCrashFails: without replication a batched
// plan touching the dead server has nowhere to go — the operation must
// fail wrapping ErrAllReplicasDown.
func TestStripedBatchUnreplicatedCrashFails(t *testing.T) {
	stripedListRig(t, 3, 1, dafs.RetryPolicy{}, nil,
		func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
			f.SetView(0, Vector(12, 1024, 2048))
			data := pattern(12 * 1024)
			if _, err := f.WriteAt(p, 0, data); err != nil {
				t.Fatalf("healthy write: %v", err)
			}
			crashServer(c, 1)
			if _, err := f.WriteAt(p, 0, data); !errors.Is(err, dafs.ErrAllReplicasDown) {
				t.Fatalf("batched write with dead server: err=%v, want ErrAllReplicasDown", err)
			}
			if _, err := f.ReadAt(p, 0, make([]byte, len(data))); !errors.Is(err, dafs.ErrAllReplicasDown) {
				t.Fatalf("batched read with dead server: err=%v, want ErrAllReplicasDown", err)
			}
		})
}

// stagingBuffers counts the staging buffers the driver's idle list ops
// hold.
func stagingBuffers(drv *StripedDAFSDriver) int {
	n := 0
	for _, o := range drv.freePlans {
		for _, b := range o.staging {
			if b != nil {
				n++
			}
		}
	}
	return n
}

// listRoundTrip writes segs from a buffer of distinct blocks through h's
// list path, reads them back into a fresh buffer and compares. Before the
// write is waited it checks which of the op's plans stage.
func listRoundTrip(t *testing.T, p *sim.Proc, h Handle, segs []Segment, staged []bool) {
	t.Helper()
	n := 0
	for _, s := range segs {
		n += int(s.Len)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	op, err := h.StartList(p, segs, data, true)
	if err != nil {
		t.Fatalf("list write: %v", err)
	}
	o := op.(*planOp)
	got := make([]bool, len(o.plans))
	for u := range o.plans {
		got[u] = o.staged(u)
	}
	if !slices.Equal(got, staged) {
		t.Errorf("plans staged %v, want %v", got, staged)
	}
	if w, err := op.Wait(p); err != nil || w != n {
		t.Fatalf("list write = %d, %v; want %d", w, err, n)
	}
	back := make([]byte, n)
	op, err = h.StartList(p, segs, back, false)
	if err != nil {
		t.Fatalf("list read: %v", err)
	}
	if r, err := op.Wait(p); err != nil || r != n {
		t.Fatalf("list read = %d, %v; want %d", r, err, n)
	}
	if !bytes.Equal(back, data) {
		t.Error("list read-back mismatch")
	}
}

// TestListDirectWindowAtWidth4: at width 4 a list inside one stripe is one
// plan of one run, and its window is the user buffer: it round-trips with
// no staging buffer left on the driver's idle ops and no pin in use.
func TestListDirectWindowAtWidth4(t *testing.T) {
	settledRig(t, 4, func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, _ []*dafs.Client) {
		h, err := drv.Open(p, "f", ModeRdWr|ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		// Four 500-byte blocks inside stripe 1 (server 1).
		segs := []Segment{{Off: 4096, Len: 500}, {Off: 5096, Len: 500}, {Off: 6096, Len: 500}, {Off: 7096, Len: 500}}
		listRoundTrip(t, p, h, segs, []bool{false})
		if n, pins := stagingBuffers(drv), c.NICs[0].PinsInUse(); n != 0 || pins != 0 {
			t.Errorf("%d staging buffers on the idle ops (want 0), %d pins in use (want 0)", n, pins)
		}
		h.Close(p)
	})
}

// TestListMixedWindowsAtWidth4: a list whose plans are one single-run plan
// and one multi-run plan. Server 0's plan is blocks 0 and 2 of the buffer
// and stages; server 2's is block 1 and moves from the user buffer. The
// read's scatter covers only the staged plan, and the bytes come back
// where they were written from.
func TestListMixedWindowsAtWidth4(t *testing.T) {
	settledRig(t, 4, func(p *sim.Proc, c *cluster.Cluster, drv *StripedDAFSDriver, _ []*dafs.Client) {
		h, err := drv.Open(p, "f", ModeRdWr|ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		segs := []Segment{{Off: 100, Len: 700}, {Off: 8192 + 300, Len: 900}, {Off: 16384 + 50, Len: 600}}
		listRoundTrip(t, p, h, segs, []bool{true, false})
		if n, pins := stagingBuffers(drv), c.NICs[0].PinsInUse(); n != 1 || pins != 0 {
			t.Errorf("%d staging buffers on the idle ops (want 1), %d pins in use (want 0)", n, pins)
		}
		h.Close(p)
	})
}

// TestStagePoolBoundedAfterBurst: a burst of concurrent batched list
// writes and reads stages one buffer per server plan in flight, each op's
// own, pinned through the NIC's registration cache. Every op must come
// back through unwindow to its driver's free list: the burst leaves no
// pin in use and the NIC within the sessions' rings and the cache's 64
// pins, and a second burst of the same shape reuses those ops and their
// pinned buffers and registers nothing.
func TestStagePoolBoundedAfterBurst(t *testing.T) {
	const servers, workers = 3, 8
	const stripe = 4 << 10
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true})
	c.K.Spawn("boss", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers})
		nic := pool[0].NIC()
		rings := nic.Regions()
		burst := func() {
			wg := sim.NewWaitGroup(c.K, workers)
			for w := 0; w < workers; w++ {
				w := w
				c.K.Spawn(fmt.Sprintf("burst%d", w), func(p *sim.Proc) {
					defer wg.Done()
					f, err := Open(p, nil, drv, fmt.Sprintf("b%d", w), ModeRdWr|ModeCreate, nil)
					if err != nil {
						t.Errorf("worker %d: open: %v", w, err)
						return
					}
					f.SetView(0, Vector(32, 512, 2048))
					data := pattern(32 * 512)
					if _, err := f.WriteAt(p, 0, data); err != nil {
						t.Errorf("worker %d: write: %v", w, err)
					}
					got := make([]byte, len(data))
					if _, err := f.ReadAt(p, 0, got); err != nil {
						t.Errorf("worker %d: read: %v", w, err)
					}
					if !bytes.Equal(got, data) {
						t.Errorf("worker %d: read-back mismatch", w)
					}
					f.Close(p)
				})
			}
			wg.Wait(p)
		}
		burst()
		staged := nic.Regions()
		if got := staged - rings; got > 64 || got < servers*2 || nic.PinsInUse() != 0 {
			t.Errorf("%d regions pinned after the burst beside the rings, want at least %d windows and at most the cache's 64; %d pins in use, want 0", got, servers*2, nic.PinsInUse())
		}
		// A fresh buffer's pin names the next handle the NIC issues.
		next := func() via.MemHandle {
			r, _ := nic.Pin(p, make([]byte, 1))
			nic.Unpin(p, r)
			return r.Handle
		}
		h := next()
		burst()
		if got := next() - h; got != 1 || nic.Regions() != staged+2 || nic.PinsInUse() != 0 {
			t.Errorf("a second burst registered %d regions (%d pinned, want %d); %d pins in use, want 0", got-1, nic.Regions()-rings, staged+2-rings, nic.PinsInUse())
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
