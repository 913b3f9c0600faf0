package bench

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

var traced = Observation{Trace: true}

// observed runs bench.Observe and fails the test on an error.
func observed(t *testing.T, id string, clients, servers int, o Observation) Result {
	t.Helper()
	r, err := Observe(id, clients, servers, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTracedDeterminism pins the headline observability guarantee: running
// the same traced experiment twice produces byte-identical Chrome exports
// and identical report tables.
func TestTracedDeterminism(t *testing.T) {
	r1 := observed(t, "T15", 2, 2, traced)
	r2 := observed(t, "T15", 2, 2, traced)
	var b1, b2 bytes.Buffer
	if err := r1.Tracer.WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Tracer.WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two T15 runs produced different Chrome traces")
	}
	if a, b := r1.BreakdownTable().String(), r2.BreakdownTable().String(); a != b {
		t.Errorf("breakdown tables differ:\n%s\n---\n%s", a, b)
	}
	if a, b := r1.Tracer.HistTable().String(), r2.Tracer.HistTable().String(); a != b {
		t.Error("histogram tables differ")
	}
	if r1.MBps != r2.MBps || r1.Elapsed() != r2.Elapsed() {
		t.Errorf("run metrics differ: %v/%v vs %v/%v", r1.MBps, r1.Elapsed(), r2.MBps, r2.Elapsed())
	}
}

// TestTracedMatchesUntraced pins that tracing is purely observational: the
// measured bandwidth is bit-identical with the tracer on or off.
func TestTracedMatchesUntraced(t *testing.T) {
	if tr, plain := observed(t, "T15", 2, 2, traced).MBps, measure(stripePoint("T15", dafsStack, 2, 2, stripePer, false)).MBps; tr != plain {
		t.Errorf("T15 bandwidth: traced %v != untraced %v", tr, plain)
	}
	if tr, plain := observed(t, "T6", 4, 4, traced).MBps, measure(collPoint(2048, methodTwoPhase)).MBps; tr != plain {
		t.Errorf("T6 bandwidth: traced %v != untraced %v", tr, plain)
	}
}

// TestMPIIOSpansTileMeasuredWindow pins the span accounting against the
// experiment clock: within the measured window each client issues its MPI-IO
// operations back-to-back, so per track the operation spans must not overlap
// and must sum exactly to (last op end - window start); the latest op end
// must equal the measured end. Any double-counted or lost span time breaks
// the equality.
func TestMPIIOSpansTileMeasuredWindow(t *testing.T) {
	for _, r := range []Result{observed(t, "T15", 1, 2, traced), observed(t, "T15", 2, 2, traced)} {
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
// one track per participating node (2 clients, 2 servers).
func TestTracedT15ChromeTracks(t *testing.T) {
	r := observed(t, "T15", 2, 2, traced)
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

// TestTracedT1T6Smoke: the other two wired experiments produce non-empty
// breakdowns whose tables render.
func TestTracedT1T6Smoke(t *testing.T) {
	for _, r := range []Result{observed(t, "T1", 4, 4, traced), observed(t, "T6", 4, 4, traced)} {
		if r.Elapsed() <= 0 {
			t.Fatalf("%s: empty measured window", r.ID)
		}
		b := r.Tracer.ComputeBreakdown()
		if b.Roots == 0 || b.RootTime <= 0 {
			t.Errorf("%s: no closed root spans (%+v)", r.ID, b)
		}
		out := r.BreakdownTable().String()
		if !strings.Contains(out, "wire") || !strings.Contains(out, "root op time") {
			t.Errorf("%s: breakdown table incomplete:\n%s", r.ID, out)
		}
	}
}
