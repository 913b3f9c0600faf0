package mpiio

import (
	"bytes"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/sim"
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
