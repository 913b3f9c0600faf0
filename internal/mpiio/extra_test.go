package mpiio

import (
	"bytes"
	"testing"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
)

func TestReadAllWriteAllAdvancePointer(t *testing.T) {
	const nranks = 2
	runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "ptr", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Each rank's view: its half of every 2KB stripe.
		f.SetView(int64(r.ID())*1024, Vector(16, 1024, 2048))
		a := rankPattern(1024, r.ID(), 1)
		b := rankPattern(1024, r.ID(), 2)
		if n, err := f.WriteAll(p, a); err != nil || n != 1024 {
			t.Errorf("write all 1: n=%d err=%v", n, err)
		}
		if f.Tell() != 1024 {
			t.Errorf("pointer %d after first write-all", f.Tell())
		}
		if n, err := f.WriteAll(p, b); err != nil || n != 1024 {
			t.Errorf("write all 2: n=%d err=%v", n, err)
		}
		f.Seek(p, 0, SeekSet)
		got := make([]byte, 2048)
		if n, err := f.ReadAll(p, got); err != nil || n != 2048 {
			t.Errorf("read all: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got[:1024], a) || !bytes.Equal(got[1024:], b) {
			t.Errorf("rank %d read-all mismatch", r.ID())
		}
		f.Close(p)
	})
}

func TestPreallocateSerial(t *testing.T) {
	dc := driverCases()[0]
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "pre", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		if err := f.Preallocate(p, 10000); err != nil {
			t.Error(err)
		}
		if size, _ := f.GetSize(p); size != 10000 {
			t.Errorf("size %d", size)
		}
		// Never shrinks.
		if err := f.Preallocate(p, 100); err != nil {
			t.Error(err)
		}
		if size, _ := f.GetSize(p); size != 10000 {
			t.Errorf("size %d after smaller preallocate", size)
		}
		if err := f.Preallocate(p, -1); err != ErrNegative {
			t.Errorf("negative preallocate: %v", err)
		}
	})
}

func TestPreallocateCollective(t *testing.T) {
	c := runWorld(t, 3, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "pre", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.Preallocate(p, 1<<16); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		f.Close(p)
	})
	file, _ := c.Store.Lookup("pre")
	if file.Size() != 1<<16 {
		t.Fatalf("size %d", file.Size())
	}
}

// TestCollectiveOverNFS ensures the two-phase machinery is fully
// transport-agnostic (the ADIO split): same workload over the kernel path.
func TestCollectiveOverNFS(t *testing.T) {
	const nranks = 3
	c := runWorld(t, nranks, true, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "nfscoll", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		disp, ft := interleavedView(r.ID(), nranks, 512, 12)
		f.SetView(disp, ft)
		mine := rankPattern(512*12, r.ID(), 6)
		if n, err := f.WriteAtAll(p, 0, mine); err != nil || n != len(mine) {
			t.Errorf("rank %d: n=%d err=%v", r.ID(), n, err)
		}
		got := make([]byte, len(mine))
		if n, err := f.ReadAtAll(p, 0, got); err != nil || n != len(mine) {
			t.Errorf("rank %d read: n=%d err=%v", r.ID(), n, err)
		}
		if !bytes.Equal(got, mine) {
			t.Errorf("rank %d data mismatch over NFS", r.ID())
		}
		f.Close(p)
	})
	file, _ := c.Store.Lookup("nfscoll")
	if file.Size() != nranks*512*12 {
		t.Fatalf("size %d", file.Size())
	}
}

// TestHugeNoncontiguousTransfer stresses many tiles and multiple batch
// chunks through a large strided write-read cycle.
func TestHugeNoncontiguousTransfer(t *testing.T) {
	dc := driverCases()[1] // dafs
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "huge", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		// 2048 segments of 96B with 160B stride: ~190KB payload over
		// ~320KB span, several batch chunks.
		f.SetView(0, Vector(2048, 96, 160))
		want := body(2048*96, 0x44)
		if n, err := f.WriteAt(p, 0, want); err != nil || n != len(want) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		got := make([]byte, len(want))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(want) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("huge noncontiguous mismatch")
		}
	})
}

// TestViewOffsetBeyondFirstTile reads starting in the middle of a later
// filetype tile.
func TestViewOffsetBeyondFirstTile(t *testing.T) {
	dc := driverCases()[0]
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "tile", ModeRdWr|ModeCreate, nil)
		defer f.Close(p)
		f.SetView(0, Vector(4, 100, 250)) // size 400, extent 850... per tile
		want := body(400*3, 0x21)         // three tiles
		f.WriteAt(p, 0, want)
		// Read 150 bytes starting at payload offset 500 (tile 1, block 1).
		got := make([]byte, 150)
		if n, err := f.ReadAt(p, 500, got); err != nil || n != 150 {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want[500:650]) {
			t.Fatal("mid-tile read mismatch")
		}
	})
}

// TestSplitCollective pairs begin/end and overlaps with computation.
func TestSplitCollective(t *testing.T) {
	const nranks = 3
	runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "split", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		disp, ft := interleavedView(r.ID(), nranks, 1024, 8)
		f.SetView(disp, ft)
		mine := rankPattern(1024*8, r.ID(), 7)
		req := f.WriteAtAllBegin(p, 0, mine)
		// Compute while the collective proceeds.
		f.drv.Node().Compute(p, sim.Millisecond)
		if n, err := req.Wait(p); err != nil || n != len(mine) {
			t.Errorf("rank %d split write: n=%d err=%v", r.ID(), n, err)
		}
		got := make([]byte, len(mine))
		rreq := f.ReadAtAllBegin(p, 0, got)
		if n, err := rreq.Wait(p); err != nil || n != len(mine) {
			t.Errorf("rank %d split read: n=%d err=%v", r.ID(), n, err)
		}
		if !bytes.Equal(got, mine) {
			t.Errorf("rank %d split data mismatch", r.ID())
		}
		f.Close(p)
	})
}
