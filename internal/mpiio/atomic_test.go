package mpiio

import (
	"bytes"
	"testing"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
)

// TestAtomicOverlappingWritesNeverTear: with atomicity on, two ranks write
// the same noncontiguous region concurrently; every block of the result
// must come entirely from one rank (no interleaving inside the region).
func TestAtomicOverlappingWritesNeverTear(t *testing.T) {
	const (
		nranks = 3
		blocks = 16
		bs     = 512
	)
	c := runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "atomic", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.SetAtomicity(p, true); err != nil {
			t.Errorf("set atomicity: %v", err)
		}
		if !f.Atomicity() {
			t.Error("atomicity not on")
		}
		// Every rank writes the SAME strided region (overlapping!) with
		// its own signature, several times, staggered.
		f.SetView(0, Vector(blocks, bs, 2*bs))
		buf := bytes.Repeat([]byte{byte(r.ID() + 1)}, blocks*bs)
		p.Wait(sim.Time(r.ID()) * 13 * sim.Microsecond)
		for round := 0; round < 3; round++ {
			if n, err := f.WriteAt(p, 0, buf); err != nil || n != len(buf) {
				t.Errorf("rank %d: n=%d err=%v", r.ID(), n, err)
			}
		}
		r.Barrier(p)
		f.Close(p)
	})
	// The whole strided region must carry exactly one signature: the last
	// holder of the lock wrote all blocks without interleaving.
	file, _ := c.Store.Lookup("atomic")
	sig := stored(file, 0, 1)[0]
	if sig < 1 || sig > nranks {
		t.Fatalf("bad signature %d", sig)
	}
	for b := 0; b < blocks; b++ {
		blk := stored(file, int64(b)*2*bs, bs)
		for _, v := range blk {
			if v != sig {
				t.Fatalf("block %d torn: found %d among %d", b, v, sig)
			}
		}
	}
}

// TestNonAtomicOverlappingWritesMayTear documents the contrast: without
// atomicity the same workload is allowed to interleave (and with staggered
// pipelined writers it does here).
func TestNonAtomicOverlappingWritesMayTear(t *testing.T) {
	const (
		nranks = 3
		blocks = 16
		bs     = 512
	)
	c := runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "loose", ModeRdWr|ModeCreate, &Hints{NoBatch: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.SetView(0, Vector(blocks, bs, 2*bs))
		buf := bytes.Repeat([]byte{byte(r.ID() + 1)}, blocks*bs)
		p.Wait(sim.Time(r.ID()) * 13 * sim.Microsecond)
		for round := 0; round < 3; round++ {
			f.WriteAt(p, 0, buf)
		}
		r.Barrier(p)
		f.Close(p)
	})
	file, _ := c.Store.Lookup("loose")
	sigs := map[byte]bool{}
	for b := 0; b < blocks; b++ {
		sigs[stored(file, int64(b)*2*bs, 1)[0]] = true
	}
	if len(sigs) < 2 {
		t.Skip("writers happened not to interleave in this schedule")
	}
}

// TestAtomicityCostVisible: atomic mode must cost time (lock round trips).
func TestAtomicityCostVisible(t *testing.T) {
	measure := func(atomic bool) sim.Time {
		var elapsed sim.Time
		runWorld(t, 2, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
			f, _ := Open(p, r, drv, "cost", ModeRdWr|ModeCreate, nil)
			f.SetAtomicity(p, atomic)
			buf := make([]byte, 4096)
			r.Barrier(p)
			start := p.Now()
			for i := 0; i < 16; i++ {
				f.WriteAt(p, int64(r.ID())*65536+int64(i)*4096, buf)
			}
			r.Barrier(p)
			if r.ID() == 0 {
				elapsed = p.Now() - start
			}
			f.Close(p)
		})
		return elapsed
	}
	plain := measure(false)
	atomic := measure(true)
	if atomic <= plain {
		t.Fatalf("atomic (%v) not slower than plain (%v)", atomic, plain)
	}
}

func TestAtomicitySerial(t *testing.T) {
	dc := driverCases()[0]
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "a", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		if err := f.SetAtomicity(p, true); err != nil {
			t.Error(err)
		}
		if n, err := f.WriteAt(p, 0, []byte("data")); err != nil || n != 4 {
			t.Errorf("atomic serial write: n=%d err=%v", n, err)
		}
		f.SetAtomicity(p, false)
		if f.Atomicity() {
			t.Error("atomicity still on")
		}
	})
}

// TestAtomicCollectiveIOOneWriter: in atomic mode a collective write of
// the same region by every rank leaves one rank's bytes, not a mix —
// two-phase aggregation would apply each aggregator's sources in its own
// order — and a collective read sees the region whole.
func TestAtomicCollectiveIOOneWriter(t *testing.T) {
	const nranks, n = 3, 4096
	for _, nfs := range []bool{false, true} {
		name := map[bool]string{false: "dafs", true: "nfs"}[nfs]
		t.Run(name, func(t *testing.T) {
			c := runWorld(t, nranks, nfs, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
				f, err := Open(p, r, drv, "region", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				defer f.Close(p)
				f.SetAtomicity(p, true)
				buf := bytes.Repeat([]byte{byte(r.ID() + 1)}, n)
				if got, err := f.WriteAtAll(p, 0, buf); err != nil || got != n {
					t.Errorf("rank %d write: n=%d err=%v", r.ID(), got, err)
				}
				r.Barrier(p)
				back := make([]byte, n)
				if got, err := f.ReadAtAll(p, 0, back); err != nil || got != n {
					t.Errorf("rank %d read: n=%d err=%v", r.ID(), got, err)
				}
				if !bytes.Equal(back, bytes.Repeat(back[:1], n)) {
					t.Errorf("rank %d read a torn region", r.ID())
				}
			})
			file, err := c.Store.Lookup("region")
			if err != nil {
				t.Fatal(err)
			}
			got := stored(file, 0, n)
			counts := map[byte]int{}
			for _, v := range got {
				counts[v]++
			}
			if len(counts) != 1 || got[0] < 1 || got[0] > nranks {
				t.Fatalf("region holds bytes of %d writers: %v", len(counts), counts)
			}
		})
	}
}
