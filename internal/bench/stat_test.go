package bench

import (
	"bytes"
	"strings"
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
	if plain := measure(stripePoint("T15", dafsStack, 2, 2, stripePer, true)).MBps; observed(t, "T15", 2, 2, sampled).MBps != plain {
		t.Fatal("metrics perturbed the T15 write point")
	}
	if plain := measure(t17Point(2, methodTwoPhase)).MBps; observed(t, "T17", 4, 2, sampled).MBps != plain {
		t.Fatal("metrics perturbed the T17 collective point")
	}
}

// Two identical sampled T16 runs render byte-identical series tables and
// marshal byte-identical JSON exports — the `mpio stat` determinism contract.
func TestStatT16Deterministic(t *testing.T) {
	dump := func() (string, string) {
		r := observed(t, "T16", 4, 4, sampled)
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

// The T16 recovery story must be visible in the sampled series and the
// flight recorder: the injected crash and the orphaned calls' timeouts
// dump the client rings, the redial counters spike, and a replica is
// excluded on every client.
func TestStatT16FlightRecorder(t *testing.T) {
	r := observed(t, "T16", 4, 4, sampled)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	reg := r.Reg

	ds := reg.Dumps()
	if len(ds) == 0 {
		t.Fatal("no flight dumps from the kill run")
	}
	var crash, timeout bool
	for _, d := range ds {
		if strings.Contains(d.Reason, "server-crash server1") {
			crash = true
			if d.At != t16KillAt {
				t.Fatalf("crash dump at %v, want the injection instant %v", d.At, t16KillAt)
			}
			if len(d.Events) == 0 {
				t.Fatalf("crash dump of ring %s is empty", d.Ring)
			}
		}
		if strings.Contains(d.Reason, "deadline exceeded") {
			timeout = true
			if !strings.HasPrefix(d.Ring, "dafs.client.") {
				t.Fatalf("timeout dump from unexpected ring %s", d.Ring)
			}
		}
	}
	if !crash {
		t.Fatal("no dump for the injected server crash")
	}
	if !timeout {
		t.Fatal("no dump for the orphaned calls' timeouts (dump-on-ErrTimeout regression)")
	}

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

// The synthetic kernel load's schedule is byte-identical with the metrics
// plane on: same checksum, same virtual clock; only the sampler's own
// tick events grow the dispatched count.
func TestKernelLoadMetricsChecksum(t *testing.T) {
	cfg := KernelLoadConfig{Clients: 200, Servers: 10, Rounds: 4}
	off := RunKernelLoad(cfg)
	cfg.MetricsTick = 100 * sim.Microsecond
	on := RunKernelLoad(cfg)
	if off.Checksum != on.Checksum || off.SimTime != on.SimTime || off.Replies != on.Replies {
		t.Fatalf("metrics perturbed the kernel load: off=%+v on=%+v", off, on)
	}
	if on.Events <= off.Events {
		t.Fatalf("sampler ticks missing from event count: off=%d on=%d", off.Events, on.Events)
	}
	if on.Reg == nil || on.Reg.Samples() == 0 {
		t.Fatal("metrics registry missing from the -metrics load")
	}
}
