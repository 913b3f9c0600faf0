package bench

import (
	"bytes"
	"strings"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// t17WriteSpans collects the DAFS-layer write spans inside r's measured
// window, grouped by track (one track per client node).
func t17WriteSpans(r Result) map[string][]trace.Span {
	byTrack := make(map[string][]trace.Span)
	for _, s := range r.Tracer.Spans() {
		if s.Layer != trace.LayerDAFS || !strings.HasPrefix(s.Op, "WRITE") {
			continue
		}
		if s.Start < r.Start || s.Start >= r.End {
			continue // warm-up before the ready barrier
		}
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	return byTrack
}

// TestT17AggregatorTouchesOneServer pins the domain-alignment invariant at
// the wire: with stripe-aligned file domains, every aggregator's DAFS
// writes in the measured collective go to exactly one server, the width
// aggregators cover all width servers, and non-aggregator ranks issue no
// writes at all.
func TestT17AggregatorTouchesOneServer(t *testing.T) {
	for _, width := range []int{2, 4} {
		r := observed(t, "T17", 4, width, traced)
		byTrack := t17WriteSpans(r)
		if len(byTrack) != width {
			t.Fatalf("width %d: %d tracks issued DAFS writes, want %d aggregators", width, len(byTrack), width)
		}
		covered := make(map[int]bool)
		for track, spans := range byTrack {
			servers := make(map[int]bool)
			for _, s := range spans {
				if s.Server < 0 {
					t.Fatalf("width %d: %s: DAFS write span without a server index: %+v", width, track, s)
				}
				servers[s.Server] = true
				covered[s.Server] = true
			}
			if len(servers) != 1 {
				t.Errorf("width %d: aggregator %s touched %d servers, want exactly 1", width, track, len(servers))
			}
		}
		if len(covered) != width {
			t.Errorf("width %d: aggregators covered %d servers, want all %d", width, len(covered), width)
		}
	}
}

// t17BatchBound is the most batch requests one T17 two-phase call may cost
// an aggregator at the given width. The aggregator starts one list
// operation per source, and a source's share of its domain is 1MB/width of
// 128B pieces, each one between the other three ranks' pieces, so none
// coalesce: each list operation costs ⌈pieces/MaxBatch⌉ batch requests.
func t17BatchBound(t *testing.T, width int) int {
	t.Helper()
	maxBatch := 0
	c := cluster.New(cluster.Config{Clients: 1, Servers: 1, DAFS: true})
	c.K.Spawn("probe", func(p *sim.Proc) {
		cl, err := c.DialDAFS(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		maxBatch = cl.MaxBatch()
	})
	end(c, c.Run())
	const sources, piece = 4, 128
	pieces := (1 << 20) / piece / width
	return sources * ((pieces + maxBatch - 1) / maxBatch)
}

// TestT17BatchRequestBound pins the pipelined two-phase write's request
// economy: each aggregator writes every source's block as its own list
// write, so it may issue up to ⌈pieces/MaxBatch⌉ WRITE_BATCH requests per
// source — a handful, where one DAFS operation per 128B fragment would be
// 2,048 per source — and nothing but WRITE_BATCH.
func TestT17BatchRequestBound(t *testing.T) {
	const width = 4
	bound := t17BatchBound(t, width)
	r := observed(t, "T17", 4, width, traced)
	for track, spans := range t17WriteSpans(r) {
		for _, s := range spans {
			if s.Op != "WRITE_BATCH" {
				t.Errorf("non-batch DAFS write in the collective phase: %+v", s)
			}
		}
		if len(spans) == 0 || len(spans) > bound {
			t.Errorf("aggregator %s issued %d batch requests, want 1..%d", track, len(spans), bound)
		}
	}
}

// TestT17ReadBatchRequestBound is the read-side twin: after T17's
// two-phase write, a traced two-phase read of the same bytes must come
// back intact with every aggregator issuing only READ_BATCH requests, to
// its one server, at most ⌈pieces/MaxBatch⌉ per source — one list read per
// source straight into that source's reply, each waited at the exchange
// step that ships it.
func TestT17ReadBatchRequestBound(t *testing.T) {
	const width = 4
	bound := t17BatchBound(t, width)
	pt := t17Point(width, methodTwoPhase)
	c := newCluster(pt, traced)
	var start, stop sim.Time
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		f, _ := open(p, c, pt, i)
		rank := c.World.Rank(i)
		buf, got := make([]byte, pt.req), make([]byte, pt.req)
		if _, err := pt.call(p, f, i, true)(0, buf); err != nil {
			t.Error(err)
			return
		}
		rank.Barrier(p)
		start = p.Now()
		if n, err := f.ReadAtAll(p, 0, got); n != len(got) || err != nil {
			t.Errorf("rank %d read: n=%d err=%v", i, n, err)
		} else if !bytes.Equal(got, buf) {
			t.Errorf("rank %d read back other bytes than it wrote", i)
		}
		rank.Barrier(p)
		stop = p.Now()
		f.Close(p)
	})
	end(c, err)
	byTrack := make(map[string][]trace.Span)
	for _, s := range c.Tracer.Spans() {
		if s.Layer == trace.LayerDAFS && strings.HasPrefix(s.Op, "READ") && s.Start >= start && s.Start < stop {
			byTrack[s.Track] = append(byTrack[s.Track], s)
		}
	}
	if len(byTrack) != width {
		t.Fatalf("%d tracks issued DAFS reads, want %d aggregators", len(byTrack), width)
	}
	for track, spans := range byTrack {
		servers := make(map[int]bool)
		for _, s := range spans {
			if s.Op != "READ_BATCH" {
				t.Errorf("non-batch DAFS read in the collective phase: %+v", s)
			}
			servers[s.Server] = true
		}
		if len(servers) != 1 {
			t.Errorf("aggregator %s read from %d servers, want exactly 1", track, len(servers))
		}
		if len(spans) > bound {
			t.Errorf("aggregator %s issued %d batch requests, want 1..%d", track, len(spans), bound)
		}
	}
}

// TestT17BatchWinAtWidth pins the headline: the per-server gather plans
// restore the batch win over per-fragment independent I/O at width > 1.
func TestT17BatchWinAtWidth(t *testing.T) {
	for _, width := range []int{2, 4} {
		batch := measure(t17Point(width, methodBatch)).MBps
		per := measure(t17Point(width, methodNaive)).MBps
		if batch <= per {
			t.Errorf("width %d: batch %.1f MB/s does not beat per-fragment %.1f MB/s", width, batch, per)
		}
	}
}

// TestT17TracedMatchesUntraced pins that tracing T17 is observational and
// that the traced run is deterministic (byte-identical Chrome exports).
func TestT17TracedMatchesUntraced(t *testing.T) {
	r1 := observed(t, "T17", 4, 2, traced)
	if plain := measure(t17Point(2, methodTwoPhase)).MBps; r1.MBps != plain {
		t.Errorf("T17 bandwidth: traced %v != untraced %v", r1.MBps, plain)
	}
	r2 := observed(t, "T17", 4, 2, traced)
	var b1, b2 bytes.Buffer
	if err := r1.Tracer.WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Tracer.WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two T17 runs produced different Chrome traces")
	}
}
