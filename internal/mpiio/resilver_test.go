package mpiio

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/layout"
	"dafsio/internal/metrics"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
)

// resilverRetry is a redial policy tuned for the crash/restart windows in
// these tests: first attempts land during the outage and fail, a later
// one lands after the restart.
var resilverRetry = dafs.RetryPolicy{Base: 2 * sim.Millisecond, Max: 8 * sim.Millisecond, Attempts: 10}

// crashRestartRig runs fn on a replicated striped file whose server 1
// crashes at 10ms and restarts (store intact, sessions gone) at 25ms —
// the canonical "replica missed writes" scenario.
func crashRestartRig(t *testing.T, rate float64,
	fn func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster)) {
	t.Helper()
	const servers, stripe = 3, 4 << 10
	cfg := cluster.Config{Clients: 1, Servers: servers, DAFS: true, Metrics: metrics.New}
	cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
		{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Node: "server1"},
		{At: 25 * sim.Millisecond, Kind: fault.ServerRestart, Node: "server1"},
	}})
	c := cluster.New(cfg)
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers, Replicas: 2})
		drv.Retry = resilverRetry
		drv.ResilverRate = rate
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
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

// writeThroughOutage writes data in chunks spread across the crash window
// so server 1 misses writes while its mirrors ack them (exclusion), then
// waits out the restart and the background redial. With a fast re-silver
// policy the heal can complete (and re-admit) before the stream ends, so
// exclusion is tracked as it happens, not checked at the end. Reports
// success; failures use t.Error (never t.Fatal: Goexit from a sim proc
// would wedge the kernel).
func writeThroughOutage(t *testing.T, p *sim.Proc, f *File, drv *StripedDAFSDriver, data []byte) bool {
	t.Helper()
	const chunk = 24 << 10
	sawExcluded := false
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if n, err := f.WriteAt(p, int64(off), data[off:end]); err != nil || n != end-off {
			t.Errorf("write at %d: n=%d err=%v", off, n, err)
			return false
		}
		if drv.excluded[1] {
			sawExcluded = true
		}
		p.Wait(4 * sim.Millisecond)
	}
	if !sawExcluded {
		t.Error("server 1 never excluded — the crash window missed the write stream, retune the schedule")
		return false
	}
	// Let the background redial land after the 25ms restart.
	for i := 0; drv.down[1] && i < 100; i++ {
		p.Wait(2 * sim.Millisecond)
	}
	if drv.down[1] {
		t.Error("server 1 never redialed after restart")
		return false
	}
	return true
}

// With a very slow re-silver the gating is observable mid-flight: after
// the redial lands the server is up (down[1] false) yet still excluded,
// with the heal in progress — exactly "re-admission gated on re-silver
// completion, not dial success".
func TestReadmissionWaitsForResilver(t *testing.T) {
	const slow = 64 << 10 // ~4s to heal 256KB
	crashRestartRig(t, slow, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		data := pattern(256 << 10)
		if !writeThroughOutage(t, p, f, drv, data) {
			return
		}
		p.Wait(10 * sim.Millisecond)
		if drv.down[1] {
			t.Error("server 1 down after redial")
			return
		}
		if !drv.excluded[1] {
			t.Error("re-admitted while the re-silver is still running")
		}
		if drv.healing[1] == nil {
			t.Error("no re-silver in progress after a redial with stale data")
		}
		// Reads still work — served by the replicas that saw every write.
		got := make([]byte, len(data))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("degraded read-back: n=%d err=%v", n, err)
		}
	})
}

// healedPair is one of server 1's objects in crashRestartRig's file and
// the mirror it is healed from.
type healedPair struct {
	name           string
	healed, mirror *storage.File
}

// healedPairs returns server 1's two objects with their mirrors: primary
// 1's rank-0 object (mirrored on server 2) and primary 0's rank-1 mirror
// (of server 0's object). A missing object is reported and left out.
func healedPairs(t *testing.T, c *cluster.Cluster) []healedPair {
	t.Helper()
	var prs []healedPair
	for _, x := range []struct {
		name    string
		ref     int
		refName string
	}{
		{"s", 2, layout.ReplicaName("s", 1)},
		{layout.ReplicaName("s", 1), 0, "s"},
	} {
		healed, err := c.Stores[1].Lookup(x.name)
		if err != nil {
			t.Errorf("healed object %q: %v", x.name, err)
			continue
		}
		mirror, err := c.Stores[x.ref].Lookup(x.refName)
		if err != nil {
			t.Errorf("reference object %q on server %d: %v", x.refName, x.ref, err)
			continue
		}
		prs = append(prs, healedPair{x.name, healed, mirror})
	}
	return prs
}

// The full heal: after the re-silver completes the server is re-admitted
// and its store is a byte-identical mirror again — reads can be served
// from it.
func TestHealReadmitsWithVerifiedBytes(t *testing.T) {
	crashRestartRig(t, defaultResilverRate, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		data := pattern(256 << 10)
		if !writeThroughOutage(t, p, f, drv, data) {
			return
		}
		for i := 0; drv.healing[1] != nil && i < 1000; i++ {
			p.Wait(sim.Millisecond)
		}
		if drv.excluded[1] {
			t.Error("still excluded after the re-silver finished")
			return
		}
		// Both of server 1's objects must match their mirrors byte for byte.
		for _, pr := range healedPairs(t, c) {
			a := make([]byte, pr.healed.Size())
			b := make([]byte, pr.mirror.Size())
			pr.healed.ReadAt(a, 0)
			pr.mirror.ReadAt(b, 0)
			if !bytes.Equal(a, b) {
				t.Errorf("object %q not byte-identical after heal", pr.name)
			}
		}
		got := make([]byte, len(data))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("read-back after heal: n=%d err=%v", n, err)
		}
	})
}

// A shrink server 1 missed while down must reach it through the heal:
// copying the mirror's bytes alone leaves the healed objects at their
// pre-shrink length, and a read-any Getattr served by server 1 would then
// report the old size.
func TestHealAppliesMissedShrink(t *testing.T) {
	crashRestartRig(t, defaultResilverRate, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		const size, shrunk = 256 << 10, 40 << 10
		if n, err := f.WriteAt(p, 0, pattern(size)); err != nil || n != size {
			t.Errorf("write: n=%d err=%v", n, err)
			return
		}
		if at := 12 * sim.Millisecond; p.Now() < at {
			p.Wait(at - p.Now())
		}
		if err := f.SetSize(p, shrunk); err != nil {
			t.Errorf("shrink during the outage: %v", err)
			return
		}
		if !drv.excluded[1] {
			t.Error("server 1 not excluded after missing the shrink")
			return
		}
		for i := 0; (drv.down[1] || drv.healing[1] != nil) && i < 1000; i++ {
			p.Wait(sim.Millisecond)
		}
		if drv.excluded[1] {
			t.Error("still excluded after the re-silver finished")
			return
		}
		for _, pr := range healedPairs(t, c) {
			if pr.healed.Size() != pr.mirror.Size() {
				t.Errorf("object %q is %d bytes after heal, its mirror %d", pr.name, pr.healed.Size(), pr.mirror.Size())
			}
		}
		if n, err := f.GetSize(p); err != nil || n != shrunk {
			t.Errorf("size after heal: %d, %v; want %d", n, err, shrunk)
		}
	})
}

// reshapeRig builds a cluster, writes a pattern through a striped driver,
// and hands control to fn for the membership change.
func reshapeRig(t *testing.T, servers int, data []byte,
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
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers})
		drv.Retry = resilverRetry
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := f.WriteAt(p, 0, data); err != nil || n != len(data) {
			t.Errorf("seed write: n=%d err=%v", n, err)
			return
		}
		fn(p, f, drv, c)
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// Growing the stripe onto a joined server: prepare, dual-write, migrate,
// commit, cleanup. The joined server ends up holding epoch-2 objects, the
// old epoch's objects are gone, and every byte — including one written
// mid-reshape — reads back through the new layout.
func TestReshapeGrow(t *testing.T) {
	data := pattern(1 << 20)
	reshapeRig(t, 3, data, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		s, epoch := c.AddServer()
		pool, err := c.DialDAFSAll(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
		if err != nil {
			t.Errorf("dial grown pool: %v", err)
			return
		}
		rs, err := drv.PrepareReshape(p, pool, layout.Striping{StripeSize: 4 << 10, Width: 4}, epoch)
		if err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		// A write during the reshape dual-writes onto both layouts.
		fresh := pattern(4 << 10)
		for i := range fresh {
			fresh[i] ^= 0x5a
		}
		copy(data[256<<10:], fresh)
		if _, err := f.WriteAt(p, 256<<10, data[256<<10:260<<10]); err != nil {
			t.Errorf("mid-reshape write: %v", err)
			return
		}
		if err := rs.Migrate(p); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		rs.Commit(p)
		if drv.LayoutEpoch() != epoch || drv.Striping().Width != 4 {
			t.Errorf("post-commit layout: epoch %d width %d", drv.LayoutEpoch(), drv.Striping().Width)
		}
		rs.Cleanup(p)

		got := make([]byte, len(data))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("read-back through new layout: n=%d err=%v", n, err)
		}
		// The joiner holds the file's epoch-tagged object and serves reads.
		if _, err := c.Stores[s].Lookup(layout.EpochName("s", epoch)); err != nil {
			t.Errorf("no epoch-%d object on the joined server: %v", epoch, err)
		}
		// Cleanup removed the old epoch's (plain-named) objects.
		for old := 0; old < 3; old++ {
			if _, err := c.Stores[old].Lookup("s"); err == nil {
				t.Errorf("old-layout object survived cleanup on server %d", old)
			}
		}
		// The file stays writable after the flip.
		if _, err := f.WriteAt(p, int64(len(data)), pattern(8<<10)); err != nil {
			t.Errorf("post-commit write: %v", err)
		}
	})
}

// A reshape's pools share the client NIC's one registration cache: after
// commit, a read through the new layout into a buffer the old layout
// pinned registers nothing, and after cleanup the NIC holds no more than
// the sessions' rings and one cache's worth of pins, though each layout
// read through more distinct buffers than the cache holds.
func TestReshapeSharesRegistrations(t *testing.T) {
	const stripe, bufs = 64 << 10, 70
	c := cluster.New(cluster.Config{Clients: 1, Servers: 3, DAFS: true})
	nic := c.NICs[0]
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		rings := nic.Regions()
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: 3})
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.WriteAt(p, 0, pattern(bufs*stripe)); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		// Every read is one direct stripe fragment into a buffer of its own.
		readAll := func(which string) []byte {
			var last []byte
			for i := range bufs {
				last = make([]byte, stripe)
				if _, err := f.ReadAt(p, int64(i)*stripe, last); err != nil {
					t.Errorf("%s read %d: %v", which, i, err)
				}
			}
			return last
		}
		pinned := readAll("old-layout")

		c.AddServer()
		before := nic.Regions()
		grown, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Errorf("dial grown pool: %v", err)
			return
		}
		rings += nic.Regions() - before
		rs, err := drv.PrepareReshape(p, grown, layout.Striping{StripeSize: stripe, Width: 4}, 2)
		if err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if err := rs.Migrate(p); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		rs.Commit(p)
		before = nic.Regions()
		if _, err := f.ReadAt(p, (bufs-1)*stripe, pinned); err != nil {
			t.Errorf("post-commit read: %v", err)
		}
		if got := nic.Regions() - before; got != 0 {
			t.Errorf("the new layout registered %d regions for a buffer the old one pinned", got)
		}
		readAll("new-layout")
		rs.Cleanup(p)
		if got := nic.Regions(); got > rings+64 {
			t.Errorf("after cleanup the NIC holds %d regions, want at most %d rings + 64 pins", got, rings)
		}
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// A reshape leaves no staging window of the retired layout pinned: list
// I/O stages through its ops' own buffers, pinned in the NIC's one cache,
// so once the new layout has pinned more fresh buffers than the cache
// holds, the NIC holds the two pools' rings and the cache's 64 pins and
// nothing else. (The retired pool's rings stay: a reshape does not close
// the old sessions.)
func TestReshapeLeavesNoStaging(t *testing.T) {
	const stripe, reads = 64 << 10, 65
	c := cluster.New(cluster.Config{Clients: 1, Servers: 3, DAFS: true})
	nic := c.NICs[0]
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		rings := nic.Regions()
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: 3})
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// 512 B every 2 KB over three stripes: one staged plan per server.
		f.SetView(0, Vector(96, 512, 2048))
		if _, err := f.WriteAt(p, 0, pattern(96*512)); err != nil {
			t.Errorf("strided write: %v", err)
			return
		}
		f.SetView(0, nil)

		c.AddServer()
		before := nic.Regions()
		grown, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Errorf("dial grown pool: %v", err)
			return
		}
		rings += nic.Regions() - before
		rs, err := drv.PrepareReshape(p, grown, layout.Striping{StripeSize: stripe, Width: 4}, 2)
		if err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if err := rs.Migrate(p); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		rs.Commit(p)
		rs.Cleanup(p)
		// Each read is one direct fragment into a buffer of its own.
		for i := range reads {
			if _, err := f.ReadAt(p, 0, make([]byte, 16<<10)); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
		f.Close(p)
		if got := nic.Regions(); got != rings+64 {
			t.Errorf("after cleanup, %d fresh reads and close the NIC holds %d regions, want %d rings + 64 pins", reads, got, rings)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// Shrinking onto two of three servers: after migrate+commit+cleanup the
// dropped server holds none of the file's bytes, and the file reads back
// whole from the survivors.
func TestReshapeShrink(t *testing.T) {
	data := pattern(768 << 10)
	reshapeRig(t, 3, data, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		// The pool for the shrunken layout needs only the survivors.
		pool := make([]*dafs.Client, 2)
		for s := 0; s < 2; s++ {
			cl, err := c.DialDAFSServer(p, 0, s, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
			if err != nil {
				t.Errorf("dial survivor %d: %v", s, err)
				return
			}
			pool[s] = cl
		}
		rs, err := drv.PrepareReshape(p, pool, layout.Striping{StripeSize: 4 << 10, Width: 2}, 2)
		if err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if err := rs.Migrate(p); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		rs.Commit(p)
		rs.Cleanup(p)

		if _, err := c.Stores[2].Lookup("s"); err == nil {
			t.Error("dropped server still holds the file after cleanup")
		}
		got := make([]byte, len(data))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("read-back after shrink: n=%d err=%v", n, err)
		}
	})
}

// Reshape refusals: a non-advancing epoch and a double prepare are both
// rejected up front.
func TestReshapeRefusals(t *testing.T) {
	data := pattern(64 << 10)
	reshapeRig(t, 3, data, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		st := layout.Striping{StripeSize: 4 << 10, Width: 3}
		if _, err := drv.PrepareReshape(p, pool, st, 1); !errors.Is(err, ErrReshape) {
			t.Errorf("non-advancing epoch: err=%v", err)
		}
		rs, err := drv.PrepareReshape(p, pool, st, 2)
		if err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		if _, err := drv.PrepareReshape(p, pool, st, 3); !errors.Is(err, ErrReshape) {
			t.Errorf("double prepare: err=%v", err)
		}
		if err := rs.Migrate(p); err != nil {
			t.Errorf("migrate: %v", err)
		}
		rs.Commit(p)
		rs.Cleanup(p)
	})
}

// faultStorm interleaves a crash, a restart, and a join — the background
// redial, the re-silver heal, and a reshape all overlap — and returns the
// evidence: the final read-back, the redial count, and the finish time.
func faultStorm(t *testing.T) (got []byte, retries int64, finish sim.Time) {
	t.Helper()
	const (
		servers = 3
		stripe  = 4 << 10
		total   = 512 << 10
		chunk   = 32 << 10
	)
	cfg := cluster.Config{Clients: 1, Servers: servers, DAFS: true}
	cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
		{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Node: "server1"},
		{At: 25 * sim.Millisecond, Kind: fault.ServerRestart, Node: "server1"},
	}})
	c := cluster.New(cfg)
	data := pattern(total)
	got = make([]byte, total)
	var drv *StripedDAFSDriver
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		drv = NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers, Replicas: 2})
		drv.Retry = resilverRetry
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Write through the crash window: server 1 misses writes, gets
		// excluded, redials after the restart, and heals in the background.
		for off := 0; off < total/2; off += chunk {
			if _, err := f.WriteAt(p, int64(off), data[off:off+chunk]); err != nil {
				t.Errorf("storm write at %d: %v", off, err)
				return
			}
			p.Wait(3 * sim.Millisecond)
		}
		// A server joins mid-heal; reshape onto the grown layout while the
		// re-silver of server 1 may still be running.
		_, epoch := c.AddServer()
		grown, err := c.DialDAFSAll(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
		if err != nil {
			t.Errorf("dial grown pool: %v", err)
			return
		}
		rs, err := drv.PrepareReshape(p, grown, layout.Striping{StripeSize: stripe, Width: 4, Replicas: 2}, epoch)
		if err != nil {
			t.Errorf("prepare: %v", err)
			return
		}
		// Keep writing while the migration runs (dual-written).
		done := sim.NewFuture[error](c.K)
		c.K.Spawn("migrator", func(mp *sim.Proc) { done.Set(rs.Migrate(mp)) })
		for off := total / 2; off < total; off += chunk {
			if _, err := f.WriteAt(p, int64(off), data[off:off+chunk]); err != nil {
				t.Errorf("mid-reshape write at %d: %v", off, err)
				return
			}
			p.Wait(sim.Millisecond)
		}
		if err := done.Get(p); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		rs.Commit(p)
		rs.Cleanup(p)
		if n, err := f.ReadAt(p, 0, got); err != nil || n != total {
			t.Errorf("final read-back: n=%d err=%v", n, err)
		}
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return got, drv.Retries, c.K.Now()
}

// The fault-storm pin: crash + restart + join interleaved, recovery is
// byte-identical, and two runs of the whole storm are deterministic down
// to the redial count and the finish time.
func TestFaultStormDeterministicRecovery(t *testing.T) {
	got1, retries1, end1 := faultStorm(t)
	if !bytes.Equal(got1, pattern(len(got1))) {
		t.Fatal("storm recovery not byte-identical to the written pattern")
	}
	if retries1 == 0 {
		t.Error("storm never exercised the redial path — retune the schedule")
	}
	got2, retries2, end2 := faultStorm(t)
	if !bytes.Equal(got1, got2) || retries1 != retries2 || end1 != end2 {
		t.Errorf("storm not deterministic: retries %d/%d, finish %d/%d",
			retries1, retries2, end1, end2)
	}
}
