package bench

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/dafs"
)

// TestT16FaultedDeterminism extends the byte-identical-trace guarantee to
// a faulted run: replaying T16's kill schedule (r=2, server1 crashing at
// 10ms) must reproduce the simulated timeline, byte counts, recovery
// metrics, and Chrome trace export exactly.
func TestT16FaultedDeterminism(t *testing.T) {
	r1 := run(t16Point(2, true), traced)
	r2 := run(t16Point(2, true), traced)
	for _, r := range []Result{r1, r2} {
		if r.Err != nil || r.corrupt {
			t.Fatalf("faulted run did not complete verified: %s", r.Outcome)
		}
	}
	if r1.MBps != r2.MBps || r1.Start != r2.Start || r1.End != r2.End {
		t.Errorf("windows differ: %.3f [%v,%v] vs %.3f [%v,%v]",
			r1.MBps, r1.Start, r1.End, r2.MBps, r2.Start, r2.End)
	}
	if r1.Recovery != r2.Recovery || r1.Retries != r2.Retries {
		t.Errorf("recovery metrics differ: %v/%d vs %v/%d", r1.Recovery, r1.Retries, r2.Recovery, r2.Retries)
	}
	var b1, b2 bytes.Buffer
	if err := r1.Tracer.WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Tracer.WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two faulted T16 runs produced different Chrome traces")
	}
}

// TestT16TracedMatchesUntraced: fault injection composes with tracing the
// same way everything else does — observationally.
func TestT16TracedMatchesUntraced(t *testing.T) {
	if tr, plain := observed(t, "T16", 4, 4, traced).MBps, run(t16Point(2, true), Observation{}).MBps; tr != plain {
		t.Errorf("T16 bandwidth: traced %v != untraced %v", tr, plain)
	}
}

// TestT16Outcomes pins the experiment's two headline claims: unreplicated,
// the crash is fatal and surfaces as ErrAllReplicasDown; replicated, the
// run completes with verified data and a positive recovery latency.
func TestT16Outcomes(t *testing.T) {
	if r := run(t16Point(1, true), Observation{}); !errors.Is(r.Err, dafs.ErrAllReplicasDown) {
		t.Errorf("r=1 kill: err=%v, want ErrAllReplicasDown", r.Err)
	}
	r := run(t16Point(2, true), Observation{})
	if r.Outcome != "recovered, verified" {
		t.Fatalf("r=2 kill: %s, want a verified completion", r.Outcome)
	}
	if r.Recovery <= 0 {
		t.Errorf("r=2 kill: recovery latency %v, want positive", r.Recovery)
	}
	if r.Retries == 0 {
		t.Error("r=2 kill: no redial attempts recorded")
	}
	healthy := run(t16Point(2, false), Observation{})
	if healthy.Outcome != "ok, verified" {
		t.Fatalf("r=2 healthy: %s", healthy.Outcome)
	}
	if r.MBps >= healthy.MBps {
		t.Errorf("killed run %.1f MB/s not below healthy %.1f MB/s", r.MBps, healthy.MBps)
	}
}
