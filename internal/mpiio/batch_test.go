package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// batchRig opens a DAFS-backed file with the given hints and runs fn.
func batchRig(t *testing.T, hints *Hints, fn func(p *sim.Proc, f *File, c *cluster.Cluster)) {
	t.Helper()
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		f, err := Open(p, nil, NewDAFSDriver(cl), "b", ModeRdWr|ModeCreate, hints)
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

// TestBatchListEquivalence: the batch path and the per-segment path must
// produce byte-identical files and read-backs.
func TestBatchListEquivalence(t *testing.T) {
	run := func(noBatch bool) ([]byte, []byte) {
		var fileBytes, readBack []byte
		batchRig(t, &Hints{NoBatch: noBatch}, func(p *sim.Proc, f *File, c *cluster.Cluster) {
			f.SetView(64, Vector(40, 700, 2100))
			want := body(40*700, 0x11)
			if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
				t.Errorf("write: n=%d err=%v", n, err)
			}
			got := make([]byte, len(want))
			if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) {
				t.Errorf("read: n=%d err=%v", n, err)
			}
			readBack = got
			file, _ := c.Store.Lookup("b")
			fileBytes = stored(file, 0, int(file.Size()))
		})
		return fileBytes, readBack
	}
	fb1, rb1 := run(false) // batch
	fb2, rb2 := run(true)  // per-segment
	if !bytes.Equal(fb1, fb2) {
		t.Fatal("batch and list produce different files")
	}
	if !bytes.Equal(rb1, rb2) {
		t.Fatal("batch and list read back differently")
	}
}

// TestBatchFasterThanPerSeg: with fine-grained segments, one batch request
// must beat hundreds of per-segment requests.
func TestBatchFasterThanPerSeg(t *testing.T) {
	measure := func(noBatch bool) sim.Time {
		var elapsed sim.Time
		batchRig(t, &Hints{NoBatch: noBatch}, func(p *sim.Proc, f *File, c *cluster.Cluster) {
			f.SetView(0, Vector(256, 512, 2048))
			buf := body(256*512, 0x2)
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
	if batch*2 > perSeg {
		t.Fatalf("batch (%v) not clearly faster than per-segment (%v)", batch, perSeg)
	}
}

// TestBatchManyChunks: more segments than one batch request carries.
func TestBatchManyChunks(t *testing.T) {
	batchRig(t, nil, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		const nsegs = 1300 // > MaxBatchSegs, forces 3 chunked requests
		f.SetView(0, Vector(nsegs, 16, 48))
		want := body(nsegs*16, 0x5)
		if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		got := make([]byte, len(want))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Error("chunked batch data mismatch")
		}
	})
}

// TestBatchShortAtEOF: batch reads report only the bytes that exist.
func TestBatchShortAtEOF(t *testing.T) {
	batchRig(t, nil, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		// 3KB file; view asks for 4 x 1KB blocks at stride 2KB (last two
		// blocks beyond EOF entirely or partially).
		f.SetView(0, nil)
		f.WriteAt(p, 0, body(3072, 0x9))
		f.SetView(0, Vector(4, 1024, 2048))
		got := make([]byte, 4096)
		n, err := f.ReadAt(p, 0, got)
		if err != nil {
			t.Error(err)
		}
		// Blocks at 0 (full), 2048 (full)... file is 3072: block at 2048
		// has 1024 available; blocks at 4096, 6144 are past EOF.
		if n != 2048 {
			t.Errorf("short batch read n=%d, want 2048", n)
		}
		if !bytes.Equal(got[:1024], body(3072, 0x9)[:1024]) {
			t.Error("first block mismatch")
		}
		if !bytes.Equal(got[1024:2048], body(3072, 0x9)[2048:3072]) {
			t.Error("second block mismatch")
		}
	})
}

// multiListRig runs fn on every client of a cluster of servers DAFS
// servers, each client with a file of its own, "b<i>", striped over all of
// them in 4 KiB stripes and opened with hints, and returns what the
// servers hold afterwards.
func multiListRig(t *testing.T, clients, servers int, hints *Hints, fn func(p *sim.Proc, i int, f *File, drv *StripedDAFSDriver)) map[string][]byte {
	t.Helper()
	c := cluster.New(cluster.Config{Clients: clients, Servers: servers, DAFS: true})
	defer c.K.Shutdown()
	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		pool, err := c.DialDAFSAll(p, i, nil)
		if err != nil {
			t.Errorf("dial %d: %v", i, err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 4 << 10, Width: servers})
		f, err := Open(p, nil, drv, names[i], ModeRdWr|ModeCreate, hints)
		if err != nil {
			t.Errorf("open %d: %v", i, err)
			return
		}
		fn(p, i, f, drv)
		f.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dumpStores(c, names)
}

// TestBatchListEquivalenceStriped: at widths 2 to 4, with four clients
// whose fan-outs start on different servers, the batch path and the
// per-segment path leave identical objects on every server and read back
// the bytes written. Each client's view starts mid-stripe on the server
// after its own and its 700 B segments straddle stripe boundaries, so the
// per-segment path starts past the head of the list and wraps to it, and
// the list path's first plan is not the first in server order.
func TestBatchListEquivalenceStriped(t *testing.T) {
	const clients, stripe = 4, 4 << 10
	for w := 2; w <= 4; w++ {
		run := func(noBatch bool) (map[string][]byte, [][]byte) {
			reads := make([][]byte, clients)
			stores := multiListRig(t, clients, w, &Hints{NoBatch: noBatch}, func(p *sim.Proc, i int, f *File, drv *StripedDAFSDriver) {
				f.SetView(int64((drv.own()+1)%w)*stripe+3700, Vector(40, 700, 2100))
				want := body(40*700, byte(0x11+i))
				if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
					t.Errorf("width %d client %d write: n=%d err=%v", w, i, n, err)
				}
				got := make([]byte, len(want))
				if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
					t.Errorf("width %d client %d read back: n=%d err=%v, bytes equal %v", w, i, n, err, bytes.Equal(got, want))
				}
				reads[i] = got
			})
			return stores, reads
		}
		batchStores, batchReads := run(false)
		segStores, segReads := run(true)
		for i := range batchReads {
			if !bytes.Equal(batchReads[i], segReads[i]) {
				t.Errorf("width %d client %d: batch and per-segment paths read back differently", w, i)
			}
		}
		if len(batchStores) != len(segStores) || len(segStores) != clients*w {
			t.Fatalf("width %d: %d objects on the batch path, %d per segment, want %d", w, len(batchStores), len(segStores), clients*w)
		}
		for k, v := range segStores {
			if !bytes.Equal(batchStores[k], v) {
				t.Errorf("width %d: object %s differs between the batch and per-segment paths", w, k)
			}
		}
	}
}

// TestFanOutStartsOnOwnServer: on four clients over four servers, client
// i's first per-segment request and its first list request, writing and
// reading, go to server i, its own, though every client's view begins on
// server 0. A contiguous request keeps stripe order: its first fragment
// goes to the server of its first byte, server 0.
func TestFanOutStartsOnOwnServer(t *testing.T) {
	contig := make(map[string]sim.Time) // per track: when its contiguous write starts
	tracks, spans := tracedStrided(t, func(p *sim.Proc, f *File, mine []byte) {
		got := make([]byte, len(mine))
		for _, noBatch := range []bool{true, false} {
			f.hints.NoBatch = noBatch
			if n, err := f.WriteAt(p, 0, mine); n != len(mine) || err != nil {
				t.Errorf("%s write (NoBatch %v): n=%d err=%v", f.track, noBatch, n, err)
			}
			if n, err := f.ReadAt(p, 0, got); n != len(mine) || err != nil || !bytes.Equal(got, mine) {
				t.Errorf("%s read back (NoBatch %v): n=%d err=%v, bytes equal %v", f.track, noBatch, n, err, bytes.Equal(got, mine))
			}
		}
		f.SetView(0, nil)
		contig[f.track] = p.Now()
		if n, err := f.WriteAt(p, 0, mine); n != len(mine) || err != nil {
			t.Errorf("%s contiguous write: n=%d err=%v", f.track, n, err)
		}
	})
	for i, tr := range tracks {
		for _, op := range []string{"WRITE", "READ", "WRITE_BATCH", "READ_BATCH"} {
			reqs := opsOn(spans, tr, op)
			if len(reqs) == 0 || reqs[0].Server != i {
				t.Errorf("%s: first %s goes to server %d of %d requests, want server %d", tr, op, firstServer(reqs), len(reqs), i)
			}
		}
		var after []trace.Span
		for _, s := range spans {
			if s.Track == tr && s.Layer == trace.LayerDAFS && s.Start >= contig[tr] {
				after = append(after, s)
			}
		}
		if got := firstServer(after); got != 0 {
			t.Errorf("%s: contiguous write's first request goes to server %d, want 0", tr, got)
		}
	}
}

// firstServer is the server of the first of reqs, -1 when there is none.
func firstServer(reqs []trace.Span) int {
	if len(reqs) == 0 {
		return -1
	}
	return reqs[0].Server
}
