package mpiio

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// failoverRig builds an N-server cluster and opens a replicated striped
// file from client 0 with a call deadline and redial policy set — the
// configuration failover needs (without a deadline, a call to a crashed
// server would hang forever).
func failoverRig(t *testing.T, servers, replicas int, retry dafs.RetryPolicy,
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

// crashServer fail-stops server s the way the cluster's fault wiring does:
// NIC dead, server crashed (so redials are rejected instead of hanging).
func crashServer(c *cluster.Cluster, s int) {
	c.DAFSSrvs[s].NIC().Kill()
	c.DAFSSrvs[s].Crash()
}

// TestReplicatedWriteAllPlacement: a healthy replicated write puts every
// rank's bytes where the rotation says — the rank-r object on server
// (s+r)%W is a byte-identical mirror of server s's primary object.
func TestReplicatedWriteAllPlacement(t *testing.T) {
	const servers, replicas = 3, 2
	data := pattern(10*(4<<10) + 513)
	failoverRig(t, servers, replicas, dafs.RetryPolicy{}, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		if n, err := f.WriteAt(p, 0, data); err != nil || n != len(data) {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
		for s := 0; s < servers; s++ {
			primary, err := c.Stores[s].Lookup("s")
			if err != nil {
				t.Fatalf("server %d primary object: %v", s, err)
			}
			for r := 1; r < replicas; r++ {
				tgt := (s + r) % servers
				mirror, err := c.Stores[tgt].Lookup(layout.ReplicaName("s", r))
				if err != nil {
					t.Fatalf("rank %d of server %d (on %d): %v", r, s, tgt, err)
				}
				if mirror.Size() != primary.Size() {
					t.Fatalf("rank %d of server %d: size %d != primary %d", r, s, mirror.Size(), primary.Size())
				}
				a := make([]byte, primary.Size())
				b := make([]byte, mirror.Size())
				primary.ReadAt(a, 0)
				mirror.ReadAt(b, 0)
				if !bytes.Equal(a, b) {
					t.Fatalf("rank %d of server %d is not a byte-identical mirror", r, s)
				}
			}
		}
	})
}

// TestFailoverWriteCompletesOnReplica: with replication 2, a server crash
// between writes costs one call deadline and some futile redials, then the
// stream completes on the survivors and every byte reads back.
func TestFailoverWriteCompletesOnReplica(t *testing.T) {
	const servers, replicas = 3, 2
	retry := dafs.RetryPolicy{Base: 100 * sim.Microsecond, Max: 400 * sim.Microsecond, Attempts: 2}
	data := pattern(24 << 10) // six 4KB stripes: two per server
	half := len(data) / 2
	failoverRig(t, servers, replicas, retry, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
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
			t.Fatal("read-back mismatch after failover")
		}
		// The redial episode runs in a background proc with backoff; give
		// it simulated time to exhaust its attempts before checking.
		p.Wait(10 * sim.Millisecond)
		if drv.Retries != int64(retry.Attempts) {
			t.Errorf("redials = %d, want the policy's %d futile attempts", drv.Retries, retry.Attempts)
		}
	})
}

// TestReadAnyFailsOverToReplica: bytes written while every server was
// healthy stay readable after a crash — the read path times out on the
// dead primary once, then serves its fragments from a replica.
func TestReadAnyFailsOverToReplica(t *testing.T) {
	const servers, replicas = 3, 2
	retry := dafs.RetryPolicy{Base: 100 * sim.Microsecond, Attempts: 1}
	data := pattern(24 << 10)
	failoverRig(t, servers, replicas, retry, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		if _, err := f.WriteAt(p, 0, data); err != nil {
			t.Fatalf("write: %v", err)
		}
		crashServer(c, 2)
		got := make([]byte, len(data))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) {
			t.Fatalf("read after crash = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read-back mismatch from replicas")
		}
	})
}

// TestUnreplicatedCrashFailsFast: with replication 1 the crashed server's
// stripes have no other copy — an extent touching it must fail with
// ErrAllReplicasDown (after recovery is exhausted), while extents on the
// survivors keep working.
func TestUnreplicatedCrashFailsFast(t *testing.T) {
	const servers, replicas = 3, 1
	const stripe = 4 << 10
	failoverRig(t, servers, replicas, dafs.RetryPolicy{}, func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
		if _, err := f.WriteAt(p, 0, pattern(3*stripe)); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		crashServer(c, 1)
		// Stripe 1 lives only on the dead server.
		if _, err := f.WriteAt(p, stripe, pattern(stripe)); !errors.Is(err, dafs.ErrAllReplicasDown) {
			t.Fatalf("write to dead server: err=%v, want ErrAllReplicasDown", err)
		}
		if _, err := f.ReadAt(p, stripe, make([]byte, stripe)); !errors.Is(err, dafs.ErrAllReplicasDown) {
			t.Fatalf("read from dead server: err=%v, want ErrAllReplicasDown", err)
		}
		// Stripe 0 (server 0) and stripe 2 (server 2) still work.
		if _, err := f.WriteAt(p, 0, pattern(stripe)); err != nil {
			t.Fatalf("write to survivor: %v", err)
		}
		buf := make([]byte, stripe)
		if _, err := f.ReadAt(p, 2*stripe, buf); err != nil {
			t.Fatalf("read from survivor: %v", err)
		}
	})
}

// TestSingleServerCrashFailsFast pins the failure semantics of the
// single-server driver, which is the striped core at width 1, for
// contiguous and list I/O alike. A write cut off by its server's crash
// fails once the call deadline passes. The error matches the session
// sentinels and ErrAllReplicasDown, as a dead server of a wider stripe
// does. With no retry policy that failure is final: the next calls fail
// with the same error without a round trip, and no failed call leaves a
// registration behind.
func TestSingleServerCrashFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name string
		view *Datatype // nil: contiguous
	}{
		{"contiguous", nil},
		{"list", Vector(64, 1024, 2048)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
			c.K.Spawn("app", func(p *sim.Proc) {
				cl, err := c.DialDAFS(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
				if err != nil {
					t.Error(err)
					return
				}
				f, err := Open(p, nil, NewDAFSDriver(cl), "s", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close(p)
				if tc.view != nil {
					f.SetView(0, tc.view)
				}
				data := pattern(64 << 10) // direct or batch: the buffer is registered
				if _, err := f.WriteAt(p, 0, data); err != nil {
					t.Errorf("healthy write: %v", err)
					return
				}
				regions := cl.NIC().Regions()
				p.Kernel().Spawn("crash", func(q *sim.Proc) {
					q.Wait(100 * sim.Microsecond)
					crashServer(c, 0)
				})
				dead := func(what string, err error) {
					for _, want := range []error{dafs.ErrSession, dafs.ErrTimeout, dafs.ErrAllReplicasDown} {
						if !errors.Is(err, want) {
							t.Errorf("%s: err=%v, want it to match %v", what, err, want)
						}
					}
				}
				_, err = f.WriteAt(p, 0, data)
				dead("write during the crash", err)
				at := p.Now()
				_, err = f.WriteAt(p, 0, data)
				dead("write after the crash", err)
				_, err = f.ReadAt(p, 0, data)
				dead("read after the crash", err)
				if p.Now() != at {
					t.Errorf("calls on the dead server took %v of simulated time", p.Now()-at)
				}
				if n := cl.NIC().Regions(); n != regions {
					t.Errorf("registrations went from %d to %d across the failed calls", regions, n)
				}
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRedriveGivesUpOnSlowServer: a server that recovers on every redial
// but never answers within the call deadline — a 1 MB write takes about
// 10 ms on the wire against a 1 ms deadline — costs the unit at most
// Retry.Attempts re-drive rounds, after which the write fails with
// ErrAllReplicasDown wrapping the timeout. Nothing else would end it: the
// crash scheduled at 1 s (a daemon event, so it does not keep the run
// alive) only bounds the test if the core re-drives forever.
func TestRedriveGivesUpOnSlowServer(t *testing.T) {
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
	c.K.AtEvent(c.K.NewDaemonEvent(func() { crashServer(c, 0) }), sim.Second)
	c.K.Spawn("app", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, &dafs.Options{CallTimeout: sim.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewDAFSDriver(cl)
		drv.Retry = dafs.RetryPolicy{Base: sim.Millisecond, Max: 4 * sim.Millisecond, Attempts: 3}
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		_, err = f.WriteAt(p, 0, pattern(1<<20))
		for _, want := range []error{dafs.ErrAllReplicasDown, dafs.ErrTimeout} {
			if !errors.Is(err, want) {
				t.Errorf("write: err=%v, want it to match %v", err, want)
			}
		}
		if p.Now() >= sim.Second {
			t.Errorf("write failed at %v after %d redials, want before the crash at 1s", p.Now(), drv.Retries)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedWriteSurvivesServerRestart pins the fault.ServerRestart
// cluster wiring end-to-end: with replication 1 a crash would be terminal
// (no other copy of the dead server's stripes), but a scheduled restart
// re-admits the server — store intact, sessions gone — the driver's
// background redial lands after the restart instant, and the interrupted
// write stream completes with every byte verifiable. It does so for
// contiguous writes over three servers and for list writes through a
// strided view over one, where the batch requests recover through the
// same core.
func TestStripedWriteSurvivesServerRestart(t *testing.T) {
	const (
		stripe = 4 << 10
		chunk  = 64 << 10
		total  = 2 << 20
	)
	for _, tc := range []struct {
		name    string
		servers int
		view    *Datatype // nil: contiguous
	}{
		{"striped", 3, nil},
		{"width-1 list", 1, Vector(64, 1024, 2048)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Config{Clients: 1, Servers: tc.servers, DAFS: true}
			victim := "server"
			if tc.servers > 1 {
				victim = "server1"
			}
			cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
				{At: 10 * sim.Millisecond, Kind: fault.ServerCrash, Node: victim},
				{At: 20 * sim.Millisecond, Kind: fault.ServerRestart, Node: victim},
			}})
			c := cluster.New(cfg)
			var drv *StripedDAFSDriver
			c.K.Spawn("app", func(p *sim.Proc) {
				pool, err := c.DialDAFSAll(p, 0, &dafs.Options{CallTimeout: 5 * sim.Millisecond})
				if err != nil {
					t.Error(err)
					return
				}
				drv = NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: tc.servers})
				drv.Retry = dafs.RetryPolicy{Base: 2 * sim.Millisecond, Max: 8 * sim.Millisecond, Attempts: 8}
				f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if tc.view != nil {
					f.SetView(0, tc.view)
				}
				data := pattern(total)
				for off := 0; off < total; off += chunk {
					if n, err := f.WriteAt(p, int64(off), data[off:off+chunk]); err != nil || n != chunk {
						t.Errorf("write at %d: n=%d err=%v", off, n, err)
						return
					}
				}
				got := make([]byte, total)
				for off := 0; off < total; off += chunk {
					if n, err := f.ReadAt(p, int64(off), got[off:off+chunk]); err != nil || n != chunk {
						t.Errorf("read at %d: n=%d err=%v", off, n, err)
						return
					}
				}
				if !bytes.Equal(got, data) {
					t.Error("read-back mismatch after restart recovery")
				}
				f.Close(p)
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if drv.Retries == 0 {
				t.Error("no redial attempts recorded — the crash window missed the write stream, retune the schedule")
			}
		})
	}
}
