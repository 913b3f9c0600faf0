// Command simbench measures the simulator kernel itself: it drives the
// synthetic 10k-proc / 100-server load from internal/bench (pure
// internal/sim traffic — channels, futures, spawn churn, timers across
// every queue horizon) and reports kernel throughput in real terms:
// events/sec, wall-clock per simulated second, and bytes/allocs per
// event. The numbers land in BENCH_simkernel.json so the kernel's perf
// trajectory is tracked across PRs; CI fails if events/sec regresses
// more than 20% against the committed file.
//
// Usage:
//
//	simbench                   # full load, 3 trials, print JSON
//	simbench -short            # smaller load for CI
//	simbench -faults 40        # drop ~1/40 requests: timeout/retry load
//	simbench -metrics          # sample the kernel gauges every 100us of sim time
//	simbench -o BENCH_simkernel.json
//	simbench -check BENCH_simkernel.json -tolerance 0.20
//
// With -metrics the run installs the metrics plane (otherwise only `mpio
// stat` and the end-to-end benchmark's traced run do): the kernel's
// own gauges (events dispatched, live procs, pending events) are sampled
// on a simulated-time tick and their peaks reported. Sampling never
// changes the schedule — the checksum is identical with it on or off —
// so -check against a metrics-off report still verifies determinism
// (checksum only; the tick events themselves grow the event count) and
// gates the plane's overhead through the events/sec floor.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dafsio/internal/bench"
	"dafsio/internal/metrics"
	"dafsio/internal/sim"
)

// Report is the schema of BENCH_simkernel.json.
type Report struct {
	Bench    string  `json:"bench"`
	Clients  int     `json:"clients"`
	Servers  int     `json:"servers"`
	Rounds   int     `json:"rounds"`
	Faults   int     `json:"faults,omitempty"`
	Metrics  bool    `json:"metrics,omitempty"`
	Events   uint64  `json:"events"`
	SimSecs  float64 `json:"sim_seconds"`
	Replies  int64   `json:"replies"`
	Timeouts int64   `json:"timeouts,omitempty"`
	Checksum uint64  `json:"checksum"`

	EventsPerSec   float64 `json:"events_per_sec"`
	WallPerSimSec  float64 `json:"wall_sec_per_sim_sec"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`

	// BaselineEventsPerSec is the pre-refactor (container/heap queue,
	// goroutine-per-spawn) kernel measured on the same load when the
	// harness was introduced; SpeedupVsBaseline = EventsPerSec over it.
	BaselineEventsPerSec float64 `json:"baseline_events_per_sec"`
	SpeedupVsBaseline    float64 `json:"speedup_vs_baseline"`

	Trials    int    `json:"trials"`
	GoVersion string `json:"go_version"`
}

func main() {
	short := flag.Bool("short", false, "smaller load (CI-sized): 2000 procs x 20 servers")
	clients := flag.Int("clients", 0, "override client proc count")
	servers := flag.Int("servers", 0, "override server proc count")
	rounds := flag.Int("rounds", 0, "override rounds per client")
	faults := flag.Int("faults", 0, "drop ~1/N requests per server (0: no fault injection)")
	withMetrics := flag.Bool("metrics", false, "run with the metrics plane sampling every 100us of simulated time")
	trials := flag.Int("trials", 3, "timed trials; best throughput is reported")
	out := flag.String("o", "", "write the JSON report to this file")
	check := flag.String("check", "", "compare against a committed report; exit 1 on regression")
	tol := flag.Float64("tolerance", 0.20, "allowed events/sec regression fraction for -check")
	baseline := flag.Float64("baseline", 0, "override the recorded pre-refactor baseline events/sec")
	flag.Parse()
	// The kernel's baton-passing dispatch keeps exactly one goroutine
	// runnable at any instant, so extra Ps have nothing to run: they only
	// spin and work-steal. A single P makes every baton handoff a direct
	// same-P switch and keeps the measurement stable across host core
	// counts.
	runtime.GOMAXPROCS(1)

	cfg := bench.KernelLoadConfig{Clients: *clients, Servers: *servers, Rounds: *rounds, Faults: *faults}
	if *short && *clients == 0 {
		cfg.Clients, cfg.Servers, cfg.Rounds = 2000, 20, 8
	}
	if *withMetrics {
		cfg.MetricsTick = 100 * sim.Microsecond
	}
	cfg = cfg.WithDefaults()

	// Warmup run: page in code, grow the heap, verify determinism against
	// the timed trials below.
	warm := bench.RunKernelLoad(cfg)
	if warm.Reg != nil {
		printGauges(warm.Reg)
	}

	best := Report{Bench: "simkernel", Metrics: *withMetrics, Trials: *trials, GoVersion: runtime.Version()}
	for t := 0; t < *trials; t++ {
		rep := runTrial(cfg)
		if rep.Checksum != warm.Checksum || rep.Events != warm.Events {
			fmt.Fprintf(os.Stderr, "simbench: nondeterministic load: trial %d events=%d checksum=%x, warmup events=%d checksum=%x\n",
				t, rep.Events, rep.Checksum, warm.Events, warm.Checksum)
			os.Exit(1)
		}
		if rep.EventsPerSec > best.EventsPerSec {
			best.Clients, best.Servers, best.Rounds, best.Faults = cfg.Clients, cfg.Servers, cfg.Rounds, cfg.Faults
			best.Events, best.SimSecs, best.Replies, best.Checksum = rep.Events, rep.SimSecs, rep.Replies, rep.Checksum
			best.Timeouts = rep.Timeouts
			best.EventsPerSec, best.WallPerSimSec = rep.EventsPerSec, rep.WallPerSimSec
			best.BytesPerEvent, best.AllocsPerEvent = rep.BytesPerEvent, rep.AllocsPerEvent
		}
	}
	base := *baseline
	if base == 0 {
		base = recordedBaseline
	}
	best.BaselineEventsPerSec = base
	if base > 0 {
		best.SpeedupVsBaseline = best.EventsPerSec / base
	}

	buf, err := json.MarshalIndent(&best, "", "  ")
	if err != nil {
		panic(err)
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf)
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *check != "" {
		if err := checkAgainst(*check, best, *tol); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simbench: within %.0f%% of committed baseline\n", *tol*100)
	}
}

// runTrial runs one timed, allocation-profiled execution of the load.
func runTrial(cfg bench.KernelLoadConfig) Report {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res := bench.RunKernelLoad(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	ev := float64(res.Events)
	rep := Report{
		Events:   res.Events,
		SimSecs:  res.SimTime.Seconds(),
		Replies:  res.Replies,
		Timeouts: res.Timeouts,
		Checksum: res.Checksum,
	}
	if wall > 0 {
		rep.EventsPerSec = ev / wall.Seconds()
	}
	if rep.SimSecs > 0 {
		rep.WallPerSimSec = wall.Seconds() / rep.SimSecs
	}
	if ev > 0 {
		rep.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / ev
		rep.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / ev
	}
	return rep
}

// printGauges surfaces the kernel gauge series a -metrics run sampled:
// peaks tell at a glance how deep the event queue and proc population ran.
func printGauges(reg *metrics.Registry) {
	peak := func(name string) int64 {
		var m int64
		for _, p := range reg.Series(name) {
			if p.V > m {
				m = p.V
			}
		}
		return m
	}
	fmt.Fprintf(os.Stderr, "simbench: metrics: %d samples at %v; peak pending events %d, peak live procs %d\n",
		reg.Samples(), reg.Tick(), peak("sim.kernel.pending_events"), peak("sim.kernel.procs_live"))
}

// checkAgainst compares a fresh report with the committed one: same load
// shape and checksum (determinism), events/sec within the tolerance.
// When exactly one of the two runs carried the metrics plane, only the
// checksum is compared — the sampler's tick events grow the dispatched
// count but must never change the schedule.
func checkAgainst(path string, got Report, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want Report
	if err := json.Unmarshal(buf, &want); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if want.Clients == got.Clients && want.Servers == got.Servers && want.Rounds == got.Rounds && want.Faults == got.Faults {
		if want.Checksum != got.Checksum {
			return fmt.Errorf("determinism drift vs %s: checksum %x->%x",
				path, want.Checksum, got.Checksum)
		}
		if want.Metrics == got.Metrics && want.Events != got.Events {
			return fmt.Errorf("determinism drift vs %s: events %d->%d",
				path, want.Events, got.Events)
		}
	}
	floor := want.EventsPerSec * (1 - tol)
	if got.EventsPerSec < floor {
		return fmt.Errorf("events/sec regressed: %.0f < %.0f (committed %.0f, tolerance %.0f%%)",
			got.EventsPerSec, floor, want.EventsPerSec, tol*100)
	}
	return nil
}

// recordedBaseline is the pre-refactor kernel (container/heap event queue,
// goroutine-per-spawn, closure-per-event) measured on the default
// 10000x100x10 load on the machine that introduced this harness. It is the
// denominator of speedup_vs_baseline; override with -baseline.
const recordedBaseline = 399691
