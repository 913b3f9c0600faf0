package bench

import (
	"bytes"
	"testing"

	"dafsio/internal/sim"
)

// sampled runs the metrics plane at the interval the tests use.
var sampled = Observation{Tick: sim.Millisecond}

// Metrics are observational: the T16 kill run produces byte-identical
// experiment results with the plane on and off — same bandwidth, same
// recovery latency, same redial count, same verified bytes.
func TestT16MetricsOnMatchesOff(t *testing.T) {
	off := run(t16Point(2, true), Observation{})
	on := run(t16Point(2, true), sampled)
	if off.Err != nil || on.Err != nil {
		t.Fatalf("errs: off=%v on=%v", off.Err, on.Err)
	}
	if off.MBps != on.MBps || off.Recovery != on.Recovery || off.Retries != on.Retries ||
		off.Start != on.Start || off.End != on.End || off.Outcome != on.Outcome {
		t.Fatalf("metrics perturbed T16:\noff=%+v\non=%+v", off, on)
	}
	if on.Reg == nil || off.Reg != nil {
		t.Fatalf("registry wiring: off.Reg=%v on.Reg=%v", off.Reg, on.Reg)
	}
}

// The T15 and T17 points likewise.
func TestStatMatchesPlain(t *testing.T) {
	write := stripePoint(dafsStack, 2, 2, stripePer, true)
	if plain := run(write, Observation{}).MBps; run(write, sampled).MBps != plain {
		t.Fatal("metrics perturbed the T15 write point")
	}
	if plain := run(t17Point(2, methodTwoPhase), Observation{}).MBps; observed(t, "T17", sampled).MBps != plain {
		t.Fatal("metrics perturbed the T17 collective point")
	}
}

// Two identical sampled T16 runs render byte-identical series tables and
// marshal byte-identical JSON exports — the `mpio stat` determinism contract.
func TestStatT16Deterministic(t *testing.T) {
	dump := func() (string, string) {
		r := observed(t, "T16", sampled)
		var buf bytes.Buffer
		if err := r.Reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return r.SeriesTable().String(), buf.String()
	}
	tab1, js1 := dump()
	tab2, js2 := dump()
	if tab1 != tab2 {
		t.Fatal("series tables differ across identical runs")
	}
	if js1 != js2 {
		t.Fatal("JSON exports differ across identical runs")
	}
}

// The T16 recovery story must be visible in the sampled series: the
// injected crash is counted, the orphaned calls hit their deadline and
// fail their sessions, the redial counters spike, and a replica is
// excluded on every client.
func TestStatT16Recovery(t *testing.T) {
	r := observed(t, "T16", sampled)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	reg := r.Reg

	if got := reg.Value("fault.injected"); got != 1 {
		t.Fatalf("fault.injected = %d, want 1", got)
	}
	var retries, excluded int64
	for _, n := range namesWith(reg, "mpiio.striped.", ".retries") {
		retries += reg.Value(n)
	}
	for _, n := range namesWith(reg, "mpiio.striped.", ".excluded") {
		excluded += reg.Value(n)
	}
	if retries != r.Retries {
		t.Fatalf("sampled retries %d != driver count %d", retries, r.Retries)
	}
	if excluded != 4 {
		t.Fatalf("excluded replicas = %d, want one per client (4)", excluded)
	}
	var timeouts, failures int64
	for _, n := range namesWith(reg, "dafs.client.", ".timeouts") {
		timeouts += reg.Value(n)
	}
	for _, n := range namesWith(reg, "dafs.client.", ".failures") {
		failures += reg.Value(n)
	}
	if timeouts < 1 || failures < 1 {
		t.Fatalf("orphaned calls: %d timeouts, %d session failures; want both >= 1", timeouts, failures)
	}

	// The dead server's byte counter must go flat after the kill while the
	// survivors keep moving: the bandwidth dip and recovery in the series.
	s1 := reg.Series("dafs.server.server1.wr_bytes")
	if len(s1) == 0 {
		t.Fatal("no series for the killed server")
	}
	var atKill, final int64
	for _, p := range s1 {
		if p.At <= t16KillAt+sampled.Tick {
			atKill = p.V
		}
		final = p.V
	}
	if final != atKill {
		t.Fatalf("killed server kept writing: %d bytes at kill, %d at end", atKill, final)
	}
	s0 := reg.Series("dafs.server.server.wr_bytes")
	if len(s0) == 0 || s0[len(s0)-1].V <= atKill {
		t.Fatal("surviving server did not out-write the killed one")
	}
}
