// Package bench is the experiment harness: one entry per table/figure of
// the (reconstructed) evaluation. An experiment is data: the points it
// runs, each on a cluster rebuilt from scratch, and a render that turns
// their results into a stats.Table. One runner runs them for cmd/mpio's
// run, trace and stat, for the golden test and for the root-level
// testing.B benchmarks, so the paper's numbers regenerate from any of them.
//
// All results are *simulated* time under the model.CLAN1998 cost model; see
// DESIGN.md §2 for the substitution argument and EXPERIMENTS.md for the
// recorded outputs.
package bench

import (
	"fmt"

	"dafsio/internal/cluster"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// Experiment is one reproducible table/figure: its points, run in order,
// and the render that draws the table from their results.
type Experiment struct {
	ID      string
	Title   string
	Points  []point
	Render  func([]Result) *stats.Table
	Observe int // the point mpio trace and stat run unless told another
}

// All lists every experiment in presentation order.
var All = []Experiment{
	t1RawVIA(),
	t2RequestSize(),
	t3InlineDirect(),
	t4CPUOverhead(),
	t5Scaling(),
	t6Collective(),
	t7Breakdown(),
	t8RegCache(),
	t9Overlap(),
	t10OpLatency(),
	t11Sensitivity(),
	t12FasterNetworks(),
	t13GbEProfile(),
	t14DiskBound(),
	t15StripedScaling(),
	t16Failover(),
	t17StripedCollective(),
	t18WideStriping(),
	t19Elastic(),
	t15NStripedNFS(),
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, error) {
	for i := range All {
		if All[i].ID == id {
			return &All[i], nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (try mpio list)", id)
}

// Run runs e's points in order, unobserved, and renders its table.
func (e Experiment) Run() *stats.Table {
	rs := make([]Result, len(e.Points))
	for i := range rs {
		rs[i], _ = e.RunPoint(i, Observation{}) // in range and unsampled: no error
	}
	t := e.Render(rs)
	t.ID = e.ID
	return t
}

// RunPoint runs e's point i under o, stamped with e's ID. T1's points run
// on a bare VIA pair, which can be traced but not sampled.
func (e Experiment) RunPoint(i int, o Observation) (Result, error) {
	if i < 0 || i >= len(e.Points) {
		return Result{}, fmt.Errorf("%s has points 0 to %d (mpio list %s), not %d", e.ID, len(e.Points)-1, e.ID, i)
	}
	pt := e.Points[i]
	pt.id = e.ID
	r := run(pt, o)
	if o.Tick > 0 && r.Reg == nil {
		return Result{}, fmt.Errorf("experiment %s cannot be sampled", e.ID)
	}
	return r, nil
}

// rows renders t with a row per label, each from an equal share of the
// results in order: the label, then the cells its share makes.
func rows(t stats.Table, labels []string, cells func(share []Result) []string) func([]Result) *stats.Table {
	return func(rs []Result) *stats.Table {
		out, k := t, len(rs)/len(labels)
		for i, l := range labels {
			out.AddRow(append([]string{l}, cells(rs[i*k:(i+1)*k])...)...)
		}
		return &out
	}
}

// format formats each of xs.
func format[T any](xs []T, f func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// bws is a cell per result: its bandwidth.
func bws(rs []Result) []string { return format(rs, func(r Result) string { return stats.BW(r.MBps) }) }

// sizeOf formats a byte count.
func sizeOf[T int | int64](n T) string { return stats.Size(int64(n)) }

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
