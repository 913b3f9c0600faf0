package mpiio

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/aggregate"
	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

var errInjected = errors.New("injected list failure")

// failingList wraps a file's handle. Its failWrite-th list write, its
// failRead-th list read and its failStart-th contiguous start (counting
// from 1; 0 never) fail at issue without starting; the failWait-th Wait on
// an operation it started waits the real operation out, then fails; every
// contiguous read fails while failContig is set. It counts the operations
// it did start and the Waits they got.
type failingList struct {
	Handle
	failWrite, failRead int
	failStart, failWait int
	failContig          bool
	writes, reads       int
	starts              int
	started, waited     int
}

func (h *failingList) Start(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error) {
	if h.failContig && !write {
		return nil, errInjected
	}
	if h.starts++; h.starts == h.failStart {
		return nil, errInjected
	}
	return h.count(h.Handle.Start(p, off, buf, write))
}

func (h *failingList) StartList(p *sim.Proc, segs []Segment, buf []byte, write bool) (AsyncOp, error) {
	n, fail := &h.reads, h.failRead
	if write {
		n, fail = &h.writes, h.failWrite
	}
	if *n++; *n == fail {
		return nil, errInjected
	}
	return h.count(h.Handle.StartList(p, segs, buf, write))
}

func (h *failingList) count(op AsyncOp, err error) (AsyncOp, error) {
	if err != nil {
		return nil, err
	}
	h.started++
	return countedOp{op, h}, nil
}

type countedOp struct {
	AsyncOp
	h *failingList
}

func (o countedOp) Wait(p *sim.Proc) (int, error) {
	o.h.waited++
	n, err := o.AsyncOp.Wait(p)
	if o.h.waited == o.h.failWait {
		return 0, errInjected
	}
	return n, err
}

// TestWriteBlockCorrupt: a write block from a peer carries no piece count,
// so it is checked against its own length before any piece reaches a
// driver — its headers end where they and their data account for the
// whole block, and a block that never lands exactly there is corrupt.
func TestWriteBlockCorrupt(t *testing.T) {
	pt := aggregate.Domains(layout.Striping{Width: 1}, 0, 1000, 2, true) // owners split at 500
	buf := pattern(500)
	segs := []Segment{{Off: 0, Len: 300}, {Off: 600, Len: 200}}
	blocks := [][]byte{make([]byte, tupleHdr+300), make([]byte, tupleHdr+200)}
	for a, b := range blocks {
		if n := packBlock(b, pt, segs, buf, a, 1); n != len(b)-tupleHdr {
			t.Fatalf("owner %d: packed %d data bytes, want %d", a, n, len(b)-tupleHdr)
		}
	}
	for a, want := range []struct {
		seg  Segment
		data []byte
	}{{Segment{Off: 0, Len: 300}, buf[:300]}, {Segment{Off: 600, Len: 200}, buf[300:]}} {
		blk, err := splitBlock(blocks[a])
		if err != nil || blk.pieces() != 1 || !bytes.Equal(blk.data, want.data) {
			t.Fatalf("owner %d: block splits into %d pieces, err %v", a, blk.pieces(), err)
		}
		if segs := appendSegs(nil, blk.hdrs); segs[0] != want.seg {
			t.Errorf("owner %d: piece %+v, want %+v", a, segs[0], want.seg)
		}
	}
	if blk, err := splitBlock(nil); err != nil || blk.pieces() != 0 {
		t.Errorf("empty block: %d pieces, err %v", blk.pieces(), err)
	}
	good := blocks[0]
	for _, bad := range []struct {
		name string
		b    []byte
	}{
		{"truncated header", good[:8]},
		{"short data", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte(nil), good...), 0, 0, 0)},
	} {
		if _, err := splitBlock(bad.b); !errors.Is(err, errCorruptPayload) {
			t.Errorf("%s: %v, want errCorruptPayload", bad.name, err)
		}
	}
}

// TestCollectiveListFailureMidExchange: aggregator 1's list write for its
// second source fails at issue — its own block's write already in flight,
// two exchange steps still to run. Every rank must get an error (rank 1
// its own, the others the peer failure), every list operation that
// started must be waited and back on its driver's free list, and each
// rank's NIC must hold no pin in use — every staging window and exchange
// buffer unpinned — and, beside its rings, the idle ops' staging buffers
// and at most the cache's 64 pins. The next collective write then
// succeeds, and the read twin fails aggregator 2's second list read the
// same way. Last, under NoBatch, aggregator 3's contiguous reads
// fail: it must still ship its (empty) replies, not abandon the exchange.
func TestCollectiveListFailureMidExchange(t *testing.T) {
	const ranks, width, block, blocks = 4, 4, 128, 1024
	c := cluster.New(cluster.Config{Clients: ranks, Servers: width, DAFS: true, MPI: true})
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		pool, err := c.DialDAFSAll(p, i, nil)
		if err != nil {
			t.Errorf("rank %d: dial: %v", i, err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 4 << 10, Width: width})
		f, err := Open(p, c.World.Rank(i), drv, "fail", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("rank %d: open: %v", i, err)
			return
		}
		f.SetView(int64(i)*block, Vector(blocks, block, ranks*block))
		fl := &failingList{Handle: f.h}
		f.h = fl
		nic := pool[0].NIC()
		before := nic.Regions()
		settledOK := func(what string) {
			t.Helper()
			if fl.waited != fl.started {
				t.Errorf("rank %d %s: %d list operations started, %d waited", i, what, fl.started, fl.waited)
			}
			if got, staged, users := nic.Regions()-before, stagingBuffers(drv), nic.PinsInUse(); got < staged || got > 64 || users != 0 {
				t.Errorf("rank %d %s: %d regions pinned beside the rings (want the idle ops' %d staging buffers and at most the cache's 64), %d pins in use (want 0)", i, what, got, staged, users)
			}
		}
		failed := func(what string, err error, culprit int) {
			t.Helper()
			switch {
			case err == nil:
				t.Errorf("rank %d %s: succeeded past the injected failure", i, what)
			case i == culprit && !errors.Is(err, errInjected):
				t.Errorf("rank %d %s: %v, want the injected failure", i, what, err)
			}
			settledOK(what)
		}

		data := rankPattern(blocks*block, i, 7)
		if i == 1 {
			fl.failWrite = 2
		}
		_, err = f.WriteAtAll(p, 0, data)
		failed("write", err, 1)
		if i == 1 && fl.writes != 2 {
			t.Errorf("rank 1 started %d list writes, want 2 (none after the failure)", fl.writes)
		}

		fl.failWrite = 0
		if n, err := f.WriteAtAll(p, 0, data); n != len(data) || err != nil {
			t.Errorf("rank %d: write after the failure: n=%d err=%v", i, n, err)
		}
		got := make([]byte, len(data))
		if i == 2 {
			fl.failRead = 2
		}
		_, err = f.ReadAtAll(p, 0, got)
		failed("read", err, 2)

		fl.failRead = 0
		clear(got)
		if n, err := f.ReadAtAll(p, 0, got); n != len(got) || err != nil || !bytes.Equal(got, data) {
			t.Errorf("rank %d: read after the failure: n=%d err=%v, bytes match %v", i, n, err, bytes.Equal(got, data))
		}
		settledOK("recovery")

		// The sequential path: an aggregator whose contiguous read fails
		// still takes part in the reply exchange, with empty replies.
		f.hints.NoBatch = true
		fl.failContig = i == 3
		_, err = f.ReadAtAll(p, 0, got)
		failed("sequential read", err, 3)
		f.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoBatchFailureWaitsEveryOp: the NoBatch paths issue contiguous
// operations in a pipeline — a list access one per segment, a two-phase
// aggregator one per assembled run or read chunk. When one fails to start, or fails at
// its Wait, every operation already started must still be waited (its
// completion recycles driver state, and a direct write may still be
// reading the caller's buffer) before the error returns.
func TestNoBatchFailureWaitsEveryOp(t *testing.T) {
	const ranks, width, block, blocks = 4, 4, 128, 1024
	c := cluster.New(cluster.Config{Clients: ranks, Servers: width, DAFS: true, MPI: true})
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		pool, err := c.DialDAFSAll(p, i, nil)
		if err != nil {
			t.Errorf("rank %d: dial: %v", i, err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 4 << 10, Width: width})
		f, err := Open(p, c.World.Rank(i), drv, "nobatch", ModeRdWr|ModeCreate, &Hints{NoBatch: true})
		if err != nil {
			t.Errorf("rank %d: open: %v", i, err)
			return
		}
		defer f.Close(p)
		fl := &failingList{Handle: f.h}
		f.h = fl
		f.SetView(int64(i)*block, Vector(blocks, block, ranks*block))
		data := rankPattern(blocks*block, i, 3)
		check := func(what string, err error, culprit bool) {
			t.Helper()
			switch {
			case err == nil:
				t.Errorf("rank %d %s: succeeded past the injected failure", i, what)
			case culprit && !errors.Is(err, errInjected):
				t.Errorf("rank %d %s: %v, want the injected failure", i, what, err)
			}
			if fl.started != fl.waited {
				t.Errorf("rank %d %s: %d operations started, %d waited", i, what, fl.started, fl.waited)
			}
		}

		// Independent list writes, one rank at a time so each failure is
		// the writer's own: the third segment fails to start, then the
		// fifth Wait fails.
		for w := 0; w < ranks; w++ {
			if w == i {
				fl.failStart = fl.starts + 3
				_, err := f.WriteAt(p, 0, data)
				check("list write, failed start", err, true)
				fl.failWait = fl.waited + 5
				_, err = f.WriteAt(p, 0, data)
				check("list write, failed wait", err, true)
			}
			c.World.Rank(i).Barrier(p)
		}

		// Two-phase: aggregator 1's third run fails to start, then
		// aggregator 2's fifth run fails at its Wait.
		if i == 1 {
			fl.failStart = fl.starts + 3
		}
		_, err = f.WriteAtAll(p, 0, data)
		check("two-phase write, failed start", err, i == 1)
		if i == 2 {
			fl.failWait = fl.waited + 5
		}
		_, err = f.WriteAtAll(p, 0, data)
		check("two-phase write, failed wait", err, i == 2)

		if n, err := f.WriteAtAll(p, 0, data); n != len(data) || err != nil {
			t.Errorf("rank %d: write after the failures: n=%d err=%v", i, n, err)
		}

		// Two-phase reads start every chunk before the reply exchange:
		// aggregator 1's third chunk fails to start, then aggregator 2's
		// fifth chunk fails at its Wait.
		got := make([]byte, len(data))
		if i == 1 {
			fl.failStart = fl.starts + 3
		}
		_, err = f.ReadAtAll(p, 0, got)
		check("two-phase read, failed start", err, i == 1)
		if i == 2 {
			fl.failWait = fl.waited + 5
		}
		_, err = f.ReadAtAll(p, 0, got)
		check("two-phase read, failed wait", err, i == 2)

		if n, err := f.ReadAtAll(p, 0, got); n != len(data) || err != nil || !bytes.Equal(got, data) {
			t.Errorf("rank %d: read after the failures: n=%d err=%v", i, n, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
