// Package bench is the experiment harness: one entry per table/figure of
// the (reconstructed) evaluation, each rebuilding its cluster from scratch
// and reporting a stats.Table. The same entries back cmd/mpio and the
// root-level testing.B benchmarks, so the paper's numbers regenerate from
// either.
//
// All results are *simulated* time under the model.CLAN1998 cost model; see
// DESIGN.md §2 for the substitution argument and EXPERIMENTS.md for the
// recorded outputs.
package bench

import (
	"fmt"
	"strings"

	"dafsio/internal/cluster"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() *stats.Table

	// observe re-runs the experiment's representative point under an
	// Observation; nil when the experiment has none.
	observe func(clients, servers int, o Observation) Result
}

// All lists every experiment in presentation order.
var All = []Experiment{
	{"T1", "Raw VIA latency and bandwidth", T1RawVIA,
		func(_, _ int, o Observation) Result { return stream(65536, 16, o) }},
	{"T2", "MPI-IO bandwidth vs request size: DAFS vs NFS (1 client)", T2RequestSize, nil},
	{"T3", "DAFS inline vs direct transfer discipline", T3InlineDirect, nil},
	{"T4", "Client CPU overhead per megabyte", T4CPUOverhead,
		func(_, _ int, o Observation) Result { return run(t4Point(dafsStack, false), o) }},
	{"T5", "Aggregate bandwidth vs number of clients", T5Scaling, nil},
	{"T6", "Collective vs independent noncontiguous I/O", T6Collective,
		func(_, _ int, o Observation) Result { return run(collPoint(2048, methodTwoPhase), o) }},
	{"T7", "DAFS operation latency breakdown", T7Breakdown, nil},
	{"T8", "Memory registration cost and the registration cache", T8RegCache, nil},
	{"T9", "Nonblocking I/O compute/transfer overlap", T9Overlap, nil},
	{"T10", "Per-operation latency: DAFS vs NFS", T10OpLatency, nil},
	{"T11", "Model sensitivity of the headline ratios", T11Sensitivity, nil},
	{"T12", "Faster networks widen the gap (future-work projection)", T12FasterNetworks, nil},
	{"T13", "Commodity gigabit-Ethernet profile", T13GbEProfile, nil},
	{"T14", "Disk-bound server: NFS leads on bandwidth (negative result)", T14DiskBound, nil},
	// A traced T15 point reads (per-stripe fan-out is the story); a sampled
	// one writes (the servers' byte counters are).
	{"T15", "Striped aggregate bandwidth: clients x servers", T15StripedScaling,
		func(n, s int, o Observation) Result {
			return run(stripePoint("T15", dafsStack, n, s, stripePer, o.Tick > 0), o)
		}},
	{"T16", "Failover under a server crash: replication 1 vs 2", T16Failover,
		func(_, _ int, o Observation) Result { return run(t16Point(2, true), o) }},
	{"T17", "Strided collective over striping: aligned domains + batch gather", T17StripedCollective,
		func(_, s int, o Observation) Result { return run(t17Point(s, methodTwoPhase), o) }},
	{"T18", "Wide striped scaling: clients x servers at 10k-proc populations", T18WideStriping, nil},
	{"T19", "Elastic membership: live join, background re-silver, versioned layouts", T19Elastic,
		func(_, _ int, o Observation) Result { return t19Run(o).Result }},
	{"T15N", "Striped NFS baseline: multi-mount striping without DAFS", T15NStripedNFS, nil},
}

// ByID finds an experiment.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// Observe re-runs experiment id's representative point under o: clients
// and servers size T15's striped point, and servers is T17's stripe width;
// the other experiments have a fixed shape. T1 runs on a bare VIA pair,
// which can be traced but not sampled.
func Observe(id string, clients, servers int, o Observation) (Result, error) {
	e := ByID(id)
	if e == nil || e.observe == nil {
		var ids []string
		for _, e := range All {
			if e.observe != nil {
				ids = append(ids, e.ID)
			}
		}
		return Result{}, fmt.Errorf("experiment %q cannot be observed (try %s)", id, strings.Join(ids, ", "))
	}
	if clients < 1 || servers < 1 {
		return Result{}, fmt.Errorf("clients and servers must be >= 1")
	}
	r := e.observe(clients, servers, o)
	if o.Tick > 0 && r.Reg == nil {
		return Result{}, fmt.Errorf("experiment %s cannot be sampled", id)
	}
	return r, nil
}

// end finishes a run of c that returned err: an error is a bug in the
// model, not a result, and panics. Otherwise the series close at the
// run's final instant and the kernel shuts down, so the procs still
// parked (server workers, session daemons) unwind and release the
// cluster, which a process that runs every experiment in turn could not
// hold on to.
func end(c *cluster.Cluster, err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	c.Metrics.SampleNow()
	c.K.Shutdown()
}

// totalFor picks a per-point transfer volume that keeps small-request
// points tractable while giving large requests enough samples.
func totalFor(size int) int64 {
	total := int64(size) * 64
	if total < 1<<20 {
		total = 1 << 20
	}
	if total > 8<<20 {
		total = 8 << 20
	}
	return total
}

// itoa formats a small integer (avoiding strconv imports everywhere).
func itoa(n int) string { return fmt.Sprintf("%d", n) }

// msFmt formats a duration in milliseconds.
func msFmt(d sim.Time) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
