package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
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

// TestStagePoolBoundedAfterBurst: a burst of concurrent batched list
// writes allocates one staging buffer per server plan in flight — well
// past the pool's high-water mark — and every buffer must come back
// through putStage, which trims the pool to stagePoolMax by
// deregistering the excess. The pinned-region count on the NIC must match
// the pool exactly: nothing above the mark stays registered, and nothing
// in the pool lost its registration.
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
		nic := drv.Clients()[0].NIC()
		before := nic.Regions()
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
		if got := len(drv.stagePool); got > drv.stagePoolMax {
			t.Errorf("stage pool holds %d buffers after burst, high-water mark is %d", got, drv.stagePoolMax)
		} else if got < drv.stagePoolMax {
			t.Errorf("stage pool holds %d buffers after burst, want the full %d mark (burst should overfill it)", got, drv.stagePoolMax)
		}
		if got, want := nic.Regions()-before, len(drv.stagePool); got != want {
			t.Errorf("%d staging regions pinned after burst, want %d (one per pooled buffer)", got, want)
		}
		for i, sb := range drv.stagePool {
			if !sb.reg.Valid() {
				t.Errorf("pooled buffer %d lost its registration", i)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
