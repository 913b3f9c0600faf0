package bench

import (
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// T16 parameters: the T15 4-client/4-server write point, re-run with a
// fault plan that crashes one server mid-stream. CallTimeout bounds how
// long an in-flight call to the dead server hangs before the session
// fails over; the retry policy then redials with capped backoff (futile
// here — the crash is permanent — so the server is declared dead after
// three attempts and the run continues on the survivors).
//
// The deadline must clear the worst-case *healthy* call latency with
// room to spare: at replication 2 each server absorbs eight 64KB
// fragments per request wave (~5ms of NIC time), so a queued call can
// legitimately take that long. A deadline below it turns the healthy run
// into a timeout -> redial -> retry livelock. 20ms is ~4x the worst
// healthy case and still resolves the crash quickly on the experiment's
// timescale.
const (
	t16KillAt      = 10 * sim.Millisecond
	t16CallTimeout = 20 * sim.Millisecond
)

// t16Point is the T16 workload: 4 clients stream disjoint 4MB regions of
// one shared striped file in 256KB writes (the T15 write point), at the
// given replication and optionally with server1 crashing at t16KillAt,
// then read their regions back and verify every byte. The retry policy is
// 100us base doubling to an 800us cap, three attempts.
func t16Point(replicas int, kill bool) point {
	pt := stripePoint(dafsStack, 4, 4, stripePer, true)
	pt.name, pt.replicas, pt.verify = "t16", replicas, true
	pt.opts = &dafs.Options{CallTimeout: t16CallTimeout}
	pt.retry = dafs.RetryPolicy{Base: 100 * sim.Microsecond, Max: 800 * sim.Microsecond, Attempts: 3}
	if kill {
		pt.faults = &fault.Plan{Events: []fault.Event{{At: t16KillAt, Kind: fault.ServerCrash, Node: "server1"}}}
	}
	return pt
}

// t16Failover is the fault-tolerance experiment: the T15 4x4 write point
// run healthy and with server1 crashing at 10ms, at replication 1 and 2.
// Healthy rows price the replication tax (every stripe written twice
// through one client NIC); the kill rows show replication converting a
// fatal failure into a degraded-but-complete run, with the recovery
// latency dominated by the 20ms call deadline on the in-flight calls the
// crash orphaned.
func t16Failover() Experiment {
	labels := []string{"r=1 healthy", "r=2 healthy", "r=1 kill@10ms", "r=2 kill@10ms"}
	return Experiment{ID: "T16", Title: "Failover under a server crash: replication 1 vs 2", Observe: 3, // r=2 kill
		Points: []point{labeled(labels[0], t16Point(1, false)), labeled(labels[1], t16Point(2, false)),
			labeled(labels[2], t16Point(1, true)), labeled(labels[3], t16Point(2, true))},
		Render: rows(stats.Table{
			Title: "Failover under a server crash at 10ms: replication 1 vs 2 (4 clients x 4 servers, 256KB writes)",
			Note: "write-all/read-any replication, rank r of a stripe on server (s+r) mod width; 20ms call deadline, redial backoff 100us..800us x3.\n" +
				"recovery = latest first post-kill completion across clients; at r=1 the crash is fatal (ErrAllReplicasDown), at r=2 the run\n" +
				"degrades to the surviving servers and every byte reads back from a replica",
			Columns: []string{"config", "wr MB/s", "recovery", "redials", "outcome"},
		}, labels, func(r []Result) []string {
			bw, rec := "-", "-"
			if r[0].Err == nil {
				bw = stats.BW(r[0].MBps)
			}
			if r[0].Recovery > 0 {
				rec = r[0].Recovery.String()
			}
			return []string{bw, rec, fmt.Sprintf("%d", r[0].Retries), r[0].Outcome}
		})}
}
