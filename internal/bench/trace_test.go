package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"

	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

var traced = Observation{Trace: true}

// observed runs experiment id's observed point under o and fails the test
// on an error.
func observed(t *testing.T, id string, o Observation) Result {
	t.Helper()
	e := experiment(id)
	r, err := e.RunPoint(e.Observe, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestObservedMatchesPlain pins that both observation planes are purely
// observational on every table: each experiment's observed point, run
// plain, traced and sampled, has the same bandwidth, window, phases and
// outcome, and carries its experiment's ID. T1's bare VIA pair has no
// metrics registry, so sampling it is an error. T18 is skipped where
// TestResultsGolden skips it.
func TestObservedMatchesPlain(t *testing.T) {
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "T18" && (testing.Short() || raceEnabled) {
				t.Skip("the wide grid in -short mode or under the race detector")
			}
			t.Parallel()
			plain := observed(t, e.ID, Observation{})
			if plain.ID != e.ID {
				t.Errorf("the runner stamped %s's point with %q", e.ID, plain.ID)
			}
			for _, o := range []Observation{traced, sampled} {
				r, err := e.RunPoint(e.Observe, o)
				if e.ID == "T1" && o.Tick > 0 {
					if err == nil {
						t.Error("T1 was sampled")
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if o.Trace && r.Tracer == nil {
					t.Error("a traced run has no tracer")
				}
				if r.MBps != plain.MBps || r.Start != plain.Start || r.End != plain.End || r.Outcome != plain.Outcome ||
					!slices.Equal(r.phases, plain.phases) {
					t.Errorf("%+v: %v MB/s [%v, %v] %v %q, plain %v MB/s [%v, %v] %v %q", o,
						r.MBps, r.Start, r.End, r.phases, r.Outcome, plain.MBps, plain.Start, plain.End, plain.phases, plain.Outcome)
				}
			}
		})
	}
}

// TestTracedMatchesUntraced pins that tracing is purely observational: the
// measured bandwidth is bit-identical with the tracer on or off, for T15's
// 2 x 2 striped read and T6's 2KB two-phase write.
func TestTracedMatchesUntraced(t *testing.T) {
	if tr, plain := observed(t, "T15", traced).MBps, run(stripePoint(dafsStack, 2, 2, stripePer, false), Observation{}).MBps; tr != plain {
		t.Errorf("T15 bandwidth: traced %v != untraced %v", tr, plain)
	}
	if tr, plain := observed(t, "T6", traced).MBps, run(collPoint(2048, methodTwoPhase), Observation{}).MBps; tr != plain {
		t.Errorf("T6 bandwidth: traced %v != untraced %v", tr, plain)
	}
}

// TestTracedDeterminism pins the headline observability guarantee: running
// the same traced point twice produces byte-identical Chrome exports and
// identical report tables, for T15's striped reads and T17's strided
// collective.
func TestTracedDeterminism(t *testing.T) {
	for _, id := range []string{"T15", "T17"} {
		r1, r2 := observed(t, id, traced), observed(t, id, traced)
		var b1, b2 bytes.Buffer
		if err := r1.Tracer.WriteChrome(&b1); err != nil {
			t.Fatal(err)
		}
		if err := r2.Tracer.WriteChrome(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("two %s runs produced different Chrome traces", id)
		}
		if a, b := r1.Tracer.BreakdownTable(r1.Elapsed()).String(), r2.Tracer.BreakdownTable(r2.Elapsed()).String(); a != b {
			t.Errorf("%s breakdown tables differ:\n%s\n---\n%s", id, a, b)
		}
		if a, b := r1.Tracer.HistTable().String(), r2.Tracer.HistTable().String(); a != b {
			t.Errorf("%s histogram tables differ", id)
		}
		if r1.MBps != r2.MBps || r1.Elapsed() != r2.Elapsed() {
			t.Errorf("%s run metrics differ: %v/%v vs %v/%v", id, r1.MBps, r1.Elapsed(), r2.MBps, r2.Elapsed())
		}
	}
}

// TestMPIIOSpansTileMeasuredWindow pins the span accounting against the
// experiment clock: within the measured window each client issues its MPI-IO
// operations back-to-back, so per track the operation spans must not overlap
// and must sum exactly to (last op end - window start); the latest op end
// must equal the measured end. Any double-counted or lost span time breaks
// the equality.
func TestMPIIOSpansTileMeasuredWindow(t *testing.T) {
	for _, r := range []Result{run(stripePoint(dafsStack, 1, 2, stripePer, false), traced), observed(t, "T15", traced)} {
		byTrack := make(map[string][]trace.Span)
		for _, s := range r.Tracer.Spans() {
			if s.Layer != trace.LayerMPIIO || s.Start < r.Start {
				continue // warm-up ops before the ready barrier
			}
			byTrack[s.Track] = append(byTrack[s.Track], s)
		}
		if len(byTrack) == 0 {
			t.Fatal("no MPI-IO spans in the measured window")
		}
		var latest sim.Time
		for track, spans := range byTrack {
			sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
			var sum sim.Time
			for i, s := range spans {
				if s.End < s.Start {
					t.Fatalf("%s: open MPI-IO span %+v", track, s)
				}
				if i > 0 && s.Start < spans[i-1].End {
					t.Errorf("%s: spans %d/%d overlap", track, i-1, i)
				}
				sum += s.Dur()
			}
			if spans[0].Start != r.Start {
				t.Errorf("%s: first measured op starts at %v, window opens at %v", track, spans[0].Start, r.Start)
			}
			last := spans[len(spans)-1].End
			if sum != last-r.Start {
				t.Errorf("%s: spans sum to %v, window start to last end is %v", track, sum, last-r.Start)
			}
			if last > latest {
				latest = last
			}
		}
		if latest != r.End {
			t.Errorf("latest op end %v != measured end %v", latest, r.End)
		}
	}
}

// TestTracedT15ChromeTracks checks the export is valid trace-event JSON with
// one track per participating node (T15's observed point: 2 clients, 2
// servers).
func TestTracedT15ChromeTracks(t *testing.T) {
	r := observed(t, "T15", traced)
	var buf bytes.Buffer
	if err := r.Tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v", err)
	}
	tracks := make(map[string]bool)
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Args["name"].(string)] = true
		}
		if e.Ph == "X" {
			complete++
		}
	}
	for _, want := range []string{"client0", "client1", "server", "server1"} {
		if !tracks[want] {
			t.Errorf("no track for %s (have %v)", want, tracks)
		}
	}
	if complete == 0 {
		t.Error("no complete events")
	}
}

// TestTracedT1T6Smoke: a bare VIA pair and a collective over one server
// produce non-empty breakdowns whose tables render.
func TestTracedT1T6Smoke(t *testing.T) {
	for _, r := range []Result{observed(t, "T1", traced), observed(t, "T6", traced)} {
		if r.Elapsed() <= 0 {
			t.Fatalf("%s: empty measured window", r.ID)
		}
		b := r.Tracer.ComputeBreakdown()
		if b.Roots == 0 || b.RootTime <= 0 {
			t.Errorf("%s: no closed root spans (%+v)", r.ID, b)
		}
		out := r.Tracer.BreakdownTable(r.Elapsed()).String()
		if !strings.Contains(out, "wire") || !strings.Contains(out, "root op time") {
			t.Errorf("%s: breakdown table incomplete:\n%s", r.ID, out)
		}
	}
}

// TestCollectiveVIASpansNestUnderWriteAll: MPI's procs carry their
// caller's trace context (an Isend's proc its caller's, a posted
// receive's rendezvous pull the receiving proc's), so in a traced
// two-phase write (T6's and T17's observed points) every VIA operation a
// rank issues during its write-all descends from that write-all.
func TestCollectiveVIASpansNestUnderWriteAll(t *testing.T) {
	for _, id := range []string{"T6", "T17"} {
		spans := observed(t, id, traced).Tracer.Spans()
		parent := make(map[trace.OpID]trace.OpID, len(spans))
		for _, s := range spans {
			parent[s.ID] = s.Parent
		}
		descends := func(s, from trace.OpID) bool {
			for ; s != 0; s = parent[s] {
				if s == from {
					return true
				}
			}
			return false
		}
		var calls, checked int
		for _, w := range spans {
			if w.Layer != trace.LayerMPIIO || w.Op != "write-all" {
				continue
			}
			calls++
			for _, s := range spans {
				if s.Layer != trace.LayerVIA || s.Track != w.Track || s.Start < w.Start || s.Start >= w.End {
					continue
				}
				checked++
				if !descends(s.ID, w.ID) {
					t.Errorf("%s: %s's VIA %s at %v, inside write-all [%v, %v], does not descend from it", id, s.Track, s.Op, s.Start, w.Start, w.End)
				}
			}
		}
		if calls == 0 || checked == 0 {
			t.Errorf("%s: %d write-alls, %d VIA spans inside them", id, calls, checked)
		}
	}
}
