package bench

import (
	"bytes"
	"strings"
	"testing"

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

// TestT17BatchRequestBound pins the gather planner's request economy: the
// collective phase moves each aggregator's whole domain with batch
// requests, at most Width x Replicas of them in total (here Replicas = 1),
// instead of one DAFS operation per 128B fragment.
func TestT17BatchRequestBound(t *testing.T) {
	const width = 4
	r := observed(t, "T17", 4, width, traced)
	batch := 0
	for _, spans := range t17WriteSpans(r) {
		for _, s := range spans {
			if s.Op != "WRITE_BATCH" {
				t.Errorf("non-batch DAFS write in the collective phase: %+v", s)
			}
			batch++
		}
	}
	if batch == 0 || batch > width {
		t.Errorf("collective phase issued %d batch requests, want 1..%d", batch, width)
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
