package mpiio

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// tracedStrided runs fn on every rank of a traced 4-rank world over four
// DAFS servers, each rank with a width-4 striped file (16 KB stripes) and
// a 128 B interleaved view: a rank's share of every stripe is one run of
// its buffer, so each of its list plans is four runs and stages. It
// returns the spans, each rank's on that rank's track.
func tracedStrided(t *testing.T, fn func(p *sim.Proc, f *File, mine []byte)) (tracks []string, spans []trace.Span) {
	t.Helper()
	const ranks, block, blocks = 4, 128, 512
	c := cluster.New(cluster.Config{Clients: ranks, Servers: 4, DAFS: true, MPI: true, Tracer: trace.New})
	defer c.K.Shutdown()
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		pool, err := c.DialDAFSAll(p, i, nil)
		if err != nil {
			t.Errorf("dial %d: %v", i, err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 16 << 10, Width: 4})
		f, err := Open(p, c.World.Rank(i), drv, "overlap", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open %d: %v", i, err)
			return
		}
		defer f.Close(p)
		f.SetView(interleavedView(i, ranks, block, blocks))
		fn(p, f, rankPattern(block*blocks, i, 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.ClientNodes {
		tracks = append(tracks, n.Name)
	}
	return tracks, c.Tracer.Spans()
}

// opsOn returns the spans of op on track, in start order.
func opsOn(spans []trace.Span, track, op string) []trace.Span {
	var out []trace.Span
	for _, s := range spans {
		if s.Track == track && s.Op == op {
			out = append(out, s)
		}
	}
	slices.SortStableFunc(out, func(a, b trace.Span) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

// TestListCopiesOverlapTransfers: a staged list plan's client copy is
// paid when that plan moves, not for the whole call up front or at the
// end. In a width-4 list write every rank packs each of its four plans
// just before the plan's request goes out, so its first WRITE_BATCH
// begins before its last pack ends; in the read back, a plan is scattered
// as soon as it is delivered, so the first scatter ends before the last
// READ_BATCH completes. Both calls still move every byte.
func TestListCopiesOverlapTransfers(t *testing.T) {
	tracks, spans := tracedStrided(t, func(p *sim.Proc, f *File, mine []byte) {
		if n, err := f.WriteAt(p, 0, mine); n != len(mine) || err != nil {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		got := make([]byte, len(mine))
		if n, err := f.ReadAt(p, 0, got); n != len(mine) || err != nil || !bytes.Equal(got, mine) {
			t.Errorf("read back: n=%d err=%v, bytes equal %v", n, err, bytes.Equal(got, mine))
		}
	})
	for _, tr := range tracks {
		packs, writes := opsOn(spans, tr, "pack"), opsOn(spans, tr, "WRITE_BATCH")
		scatters, reads := opsOn(spans, tr, "scatter"), opsOn(spans, tr, "READ_BATCH")
		if len(packs) != 4 || len(scatters) != 4 || len(writes) == 0 || len(reads) == 0 {
			t.Fatalf("%s: %d packs, %d scatters, %d WRITE_BATCH, %d READ_BATCH; want 4 staged plans each way",
				tr, len(packs), len(scatters), len(writes), len(reads))
		}
		if first, last := writes[0].Start, packs[len(packs)-1].End; first >= last {
			t.Errorf("%s: first WRITE_BATCH begins at %v, after the last pack ends at %v", tr, first, last)
		}
		lastRead := slices.MaxFunc(reads, func(a, b trace.Span) int { return cmp.Compare(a.End, b.End) }).End
		if first := scatters[0].End; first >= lastRead {
			t.Errorf("%s: first scatter ends at %v, after the last READ_BATCH completes at %v", tr, first, lastRead)
		}
	}
}

// TestTwoPhasePacksPerOwner: a two-phase write packs each owner's block
// as its exchange step sends it, this rank's own first, so a width-4
// write has one pack span per owner on every rank, and the rank's list
// write of its own block begins before its second pack starts.
func TestTwoPhasePacksPerOwner(t *testing.T) {
	tracks, spans := tracedStrided(t, func(p *sim.Proc, f *File, mine []byte) {
		if n, err := f.WriteAtAll(p, 0, mine); n != len(mine) || err != nil {
			t.Errorf("write-all: n=%d err=%v", n, err)
		}
		got := make([]byte, len(mine))
		if n, err := f.ReadAtAll(p, 0, got); n != len(mine) || err != nil || !bytes.Equal(got, mine) {
			t.Errorf("read-all back: n=%d err=%v, bytes equal %v", n, err, bytes.Equal(got, mine))
		}
	})
	for _, tr := range tracks {
		all := opsOn(spans, tr, "write-all")
		if len(all) != 1 {
			t.Fatalf("%s: %d write-all spans", tr, len(all))
		}
		var packs []trace.Span // the read-all's request walk is a pack span too
		for _, s := range opsOn(spans, tr, "pack") {
			if s.Start >= all[0].Start && s.End <= all[0].End {
				packs = append(packs, s)
			}
		}
		writes := opsOn(spans, tr, "WRITE_BATCH")
		if len(packs) != 4 || len(writes) == 0 {
			t.Fatalf("%s: %d pack spans and %d WRITE_BATCH in the write-all, want one pack per owner", tr, len(packs), len(writes))
		}
		if own, second := writes[0].Start, packs[1].Start; own >= second {
			t.Errorf("%s: own block's list write begins at %v, not before the second pack at %v", tr, own, second)
		}
	}
}

// TestListReadFailsAfterPartialScatter: in a width-4, unreplicated list
// read, plan 0 is delivered and scattered into the caller's buffer while
// the large plan of server 3 is still in the air; server 3 then crashes.
// The read still counts 0 bytes and reports the failure: what the buffer
// holds after a failed read is undefined, as MPI leaves it.
func TestListReadFailsAfterPartialScatter(t *testing.T) {
	stripedListRig(t, 4, 1, dafs.RetryPolicy{}, nil,
		func(p *sim.Proc, f *File, drv *StripedDAFSDriver, c *cluster.Cluster) {
			// 4 KB stripes: two 1 KB pieces on each of servers 0-2, then 64
			// stripes of server 3, so every small plan is two runs of the
			// buffer and server 3's is 256 KB.
			var segs []Segment
			for s := int64(0); s < 3; s++ {
				segs = append(segs, Segment{Off: s << 12, Len: 1 << 10})
			}
			for k := int64(0); k < 64; k++ {
				segs = append(segs, Segment{Off: 3<<12 + k<<14, Len: 4 << 10})
			}
			for s := int64(0); s < 3; s++ {
				segs = append(segs, Segment{Off: s<<12 + 2<<10, Len: 1 << 10})
			}
			data := pattern(6<<10 + 64<<12)
			if op, err := f.h.StartList(p, segs, data, true); err != nil {
				t.Fatalf("write: %v", err)
			} else if n, err := op.Wait(p); n != len(data) || err != nil {
				t.Fatalf("write: n=%d err=%v", n, err)
			}

			got := make([]byte, len(data))
			op, err := f.h.StartList(p, segs, got, false)
			if err != nil {
				t.Fatalf("read start: %v", err)
			}
			crashed, waited := false, false
			c.K.Spawn("crash-after-plan-0", func(wp *sim.Proc) {
				for !bytes.Equal(got[:1<<10], data[:1<<10]) {
					if waited {
						return
					}
					wp.Wait(sim.Microsecond)
				}
				crashServer(c, 3)
				crashed = true
			})
			n, err := op.Wait(p)
			waited = true
			if !crashed {
				t.Fatal("the read finished before plan 0 was scattered and server 3 crashed")
			}
			if n != 0 || !errors.Is(err, dafs.ErrAllReplicasDown) {
				t.Errorf("read with server 3 crashed mid-flight: n=%d err=%v, want 0 and ErrAllReplicasDown", n, err)
			}
		})
}
