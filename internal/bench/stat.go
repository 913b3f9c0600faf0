package bench

import (
	"fmt"
	"strings"

	"dafsio/internal/metrics"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// seriesAt indexes a sampled series by instant. Instruments registered
// after the sampler's first tick (a client dialing at t=0, a driver built
// mid-run) have shorter series than the kernel's own, so rows are joined
// on timestamps, never on sample index.
func seriesAt(reg *metrics.Registry, name string) map[sim.Time]int64 {
	m := make(map[sim.Time]int64)
	for _, p := range reg.Series(name) {
		m[p.At] = p.V
	}
	return m
}

// namesWith returns the registered names with the given prefix and
// suffix, sorted (Names is sorted already).
func namesWith(reg *metrics.Registry, prefix, suffix string) []string {
	var out []string
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			out = append(out, n)
		}
	}
	return out
}

// middle trims prefix and suffix off a metric name, leaving the node.
func middle(name, prefix, suffix string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
}

// SeriesTable renders the run's sampled series as one row per sampling
// interval: aggregate and per-server bandwidth over the interval (from
// the servers' byte counters), plus the failover counters that make a
// T16 kill legible — redial attempts in the interval, sessions currently
// down, replicas excluded from read-any.
func (r Result) SeriesTable() *stats.Table {
	instants := r.Reg.Series("sim.kernel.events_dispatched")
	wrNames := namesWith(r.Reg, "dafs.server.", ".wr_bytes")
	rdNames := namesWith(r.Reg, "dafs.server.", ".rd_bytes")
	retryNames := namesWith(r.Reg, "mpiio.striped.", ".retries")
	downNames := namesWith(r.Reg, "mpiio.striped.", ".down")
	exclNames := namesWith(r.Reg, "mpiio.striped.", ".excluded")
	rslvNames := namesWith(r.Reg, "mpiio.striped.", ".resilver_bytes")
	epochNames := namesWith(r.Reg, "mpiio.striped.", ".epoch")

	cols := []string{"t", "wr MB/s", "rd MB/s"}
	for _, n := range wrNames {
		cols = append(cols, middle(n, "dafs.server.", ".wr_bytes")+" wr")
	}
	cols = append(cols, "redials", "down", "excl", "rslv MB/s", "epoch")

	t := &stats.Table{
		ID:    r.ID,
		Title: fmt.Sprintf("%s sampled series (tick %v): per-interval bandwidth and failover state", r.ID, r.Reg.Tick()),
		Note: "bandwidth is each interval's delta of the servers' byte counters; redials and rslv (re-silver copy\n" +
			"traffic) likewise per interval. down/excl are instantaneous gauges: striped sessions marked down,\n" +
			"replicas excluded from read-any. epoch is the active layout epoch (steps at a reshape's commit)",
		Columns: cols,
	}

	at := make(map[string]map[sim.Time]int64)
	for _, names := range [][]string{wrNames, rdNames, retryNames, downNames, exclNames, rslvNames, epochNames} {
		for _, n := range names {
			at[n] = seriesAt(r.Reg, n)
		}
	}
	sum := func(names []string, t sim.Time) int64 {
		var s int64
		for _, n := range names {
			s += at[n][t] // missing instants read as 0 (counter not yet registered)
		}
		return s
	}
	for i := 1; i < len(instants); i++ {
		prev, now := instants[i-1].At, instants[i].At
		dt := now - prev
		if dt <= 0 {
			continue
		}
		row := []string{
			now.String(),
			stats.BW(stats.MBps(sum(wrNames, now)-sum(wrNames, prev), dt)),
			stats.BW(stats.MBps(sum(rdNames, now)-sum(rdNames, prev), dt)),
		}
		for _, n := range wrNames {
			row = append(row, stats.BW(stats.MBps(at[n][now]-at[n][prev], dt)))
		}
		var epoch int64
		for _, n := range epochNames {
			if v := at[n][now]; v > epoch {
				epoch = v
			}
		}
		row = append(row,
			fmt.Sprintf("%d", sum(retryNames, now)-sum(retryNames, prev)),
			fmt.Sprintf("%d", sum(downNames, now)),
			fmt.Sprintf("%d", sum(exclNames, now)),
			stats.BW(stats.MBps(sum(rslvNames, now)-sum(rslvNames, prev), dt)),
			fmt.Sprintf("%d", epoch))
		t.AddRow(row...)
	}
	return t
}
