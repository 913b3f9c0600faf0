package mpiio

import (
	"bytes"
	"sort"
	"testing"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
)

func TestSharedPointerSerial(t *testing.T) {
	dc := driverCases()[0] // mem
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, err := Open(p, nil, drv, "sp", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close(p)
		f.WriteShared(p, []byte("abc"))
		f.WriteShared(p, []byte("def"))
		got := make([]byte, 6)
		f.ReadAt(p, 0, got)
		if string(got) != "abcdef" {
			t.Errorf("content %q", got)
		}
		if err := f.SeekShared(p, 1); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 4)
		if n, err := f.ReadShared(p, buf); err != nil || n != 4 || string(buf) != "bcde" {
			t.Errorf("read shared: %q n=%d err=%v", buf, n, err)
		}
	})
}

// TestWriteSharedDisjoint: concurrent independent shared writes must land
// in disjoint regions covering the file exactly.
func TestWriteSharedDisjoint(t *testing.T) {
	const nranks = 4
	const chunk = 1000
	c := runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "sp", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Stagger starts so arrival order varies; each rank writes its
		// signature twice.
		p.Wait(sim.Time(r.ID()) * 17 * sim.Microsecond)
		for round := 0; round < 2; round++ {
			buf := bytes.Repeat([]byte{byte(r.ID() + 1)}, chunk)
			if n, err := f.WriteShared(p, buf); err != nil || n != chunk {
				t.Errorf("rank %d write shared: n=%d err=%v", r.ID(), n, err)
			}
		}
		r.Barrier(p)
		f.Close(p)
	})
	file, err := c.Store.Lookup("sp")
	if err != nil {
		t.Fatal(err)
	}
	if file.Size() != nranks*2*chunk {
		t.Fatalf("file size %d", file.Size())
	}
	// Every chunk-sized block is one rank's signature; each rank appears
	// exactly twice.
	counts := map[byte]int{}
	for b := 0; b < nranks*2; b++ {
		blk := stored(file, int64(b)*chunk, chunk)
		sig := blk[0]
		if sig < 1 || sig > nranks {
			t.Fatalf("block %d has bad signature %d", b, sig)
		}
		for _, v := range blk {
			if v != sig {
				t.Fatalf("block %d mixed contents", b)
			}
		}
		counts[sig]++
	}
	var got []int
	for _, n := range counts {
		got = append(got, n)
	}
	sort.Ints(got)
	for _, n := range got {
		if n != 2 {
			t.Fatalf("block counts %v, want two per rank", counts)
		}
	}
}

// TestWriteOrdered: the ordered collective places buffers in rank order
// regardless of arrival order.
func TestWriteOrdered(t *testing.T) {
	const nranks = 3
	c := runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "ord", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		p.Wait(sim.Time(nranks-r.ID()) * 31 * sim.Microsecond) // reverse stagger
		// Variable sizes: rank i writes (i+1)*100 bytes.
		buf := bytes.Repeat([]byte{byte('A' + r.ID())}, (r.ID()+1)*100)
		if n, err := f.WriteOrdered(p, buf); err != nil || n != len(buf) {
			t.Errorf("rank %d ordered write: n=%d err=%v", r.ID(), n, err)
		}
		// Second round checks the pointer advanced by the total.
		if n, err := f.WriteOrdered(p, buf); err != nil || n != len(buf) {
			t.Errorf("rank %d round 2: n=%d err=%v", r.ID(), n, err)
		}
		r.Barrier(p)

		// Read back collectively in rank order.
		got := make([]byte, len(buf))
		f.SeekShared(p, 0)
		if n, err := f.ReadOrdered(p, got); err != nil || n != len(buf) {
			t.Errorf("rank %d ordered read: n=%d err=%v", r.ID(), n, err)
		}
		if !bytes.Equal(got, buf) {
			t.Errorf("rank %d ordered read mismatch", r.ID())
		}
		f.Close(p)
	})
	file, _ := c.Store.Lookup("ord")
	roundLen := int64(100 + 200 + 300)
	if file.Size() != 2*roundLen {
		t.Fatalf("file size %d", file.Size())
	}
	want := bytes.Repeat([]byte{'A'}, 100)
	want = append(want, bytes.Repeat([]byte{'B'}, 200)...)
	want = append(want, bytes.Repeat([]byte{'C'}, 300)...)
	for round := int64(0); round < 2; round++ {
		if !bytes.Equal(stored(file, round*roundLen, int(roundLen)), want) {
			t.Fatalf("round %d not in rank order", round)
		}
	}
}

func TestSharedPointerWithView(t *testing.T) {
	// The shared pointer advances in view data-space: two ranks
	// write-shared through an interleaved view.
	const nranks = 2
	c := runWorld(t, nranks, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "vsp", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Both ranks share ONE view here (identical) so the data space
		// is common: every second 100-byte block of the file.
		f.SetView(0, Vector(64, 100, 200))
		buf := bytes.Repeat([]byte{byte(r.ID() + 1)}, 150)
		if _, err := f.WriteOrdered(p, buf); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		r.Barrier(p)
		f.Close(p)
	})
	file, _ := c.Store.Lookup("vsp")
	// Rank 0's 150 bytes: file[0:100] and file[200:250]; rank 1's 150:
	// file[250:300] and file[400:500].
	checks := []struct {
		off, n int64
		sig    byte
	}{
		{0, 100, 1}, {200, 50, 1}, {250, 50, 2}, {400, 100, 2},
	}
	for _, ck := range checks {
		blk := stored(file, ck.off, int(ck.n))
		for _, v := range blk {
			if v != ck.sig {
				t.Fatalf("bytes at %d not from rank %d: %v", ck.off, ck.sig-1, blk[:8])
			}
		}
	}
	// The hole between the ranks' view data stays zero.
	if stored(file, 100, 1)[0] != 0 {
		t.Fatal("view hole written")
	}
}

func TestSharedOpsAfterClose(t *testing.T) {
	dc := driverCases()[0]
	dc.run(t, func(p *sim.Proc, drv Driver) {
		f, _ := Open(p, nil, drv, "x", ModeRdWr|ModeCreate, nil)
		f.Close(p)
		if _, err := f.WriteShared(p, []byte("a")); err != ErrClosed {
			t.Errorf("write shared after close: %v", err)
		}
		if _, err := f.ReadShared(p, make([]byte, 1)); err != ErrClosed {
			t.Errorf("read shared after close: %v", err)
		}
		if err := f.SeekShared(p, 0); err != ErrClosed {
			t.Errorf("seek shared after close: %v", err)
		}
	})
}

// TestSharedPointerRepliesNeverCrossGrants: a rank's helper proc waiting
// for a lock grant must not take its main proc's pointer reply. Rank 2
// holds the lock with a long write; rank 1 starts an IwriteAt, whose
// helper queues for the lock, then writes at the shared pointer, seeked to
// 1 MiB. The record must land there.
func TestSharedPointerRepliesNeverCrossGrants(t *testing.T) {
	const at = 1 << 20
	record := []byte("record")
	c := runWorld(t, 3, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "cross", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer f.Close(p)
		f.SetAtomicity(p, true)
		f.SeekShared(p, at)
		switch r.ID() {
		case 2:
			if _, err := f.WriteAt(p, 4<<20, make([]byte, 4<<20)); err != nil {
				t.Errorf("long write: %v", err)
			}
		case 1:
			p.Wait(50 * sim.Microsecond) // rank 2 holds the lock
			req := f.IwriteAt(p, 2<<20, []byte("helper"))
			p.Wait(20 * sim.Microsecond) // the helper waits for its grant
			if n, err := f.WriteShared(p, record); err != nil || n != len(record) {
				t.Errorf("write shared: n=%d err=%v", n, err)
			}
			if _, err := req.Wait(p); err != nil {
				t.Errorf("iwrite: %v", err)
			}
		}
		r.Barrier(p)
	})
	file, err := c.Store.Lookup("cross")
	if err != nil {
		t.Fatal(err)
	}
	if got := stored(file, at, len(record)); !bytes.Equal(got, record) {
		t.Fatalf("at %d: %q, want the record", at, got)
	}
}
