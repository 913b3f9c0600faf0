package bench

import (
	"dafsio/internal/mpiio"
	"dafsio/internal/stats"
)

// t17Point writes T6's 4-rank interleaved pattern (128B blocks, 1MB per
// rank) over a file striped across width servers, after a warm-up of the
// same call that fills the per-server handles, the registration cache and
// the staging pool. Methods map onto the striped fan-out as:
//
//   - methodNaive:    independent I/O, one DAFS op per stripe fragment
//   - methodBatch:    independent I/O through the gather planner — one DAFS
//     batch request per server per replica
//   - methodTwoPhase: collective two-phase with stripe-aligned file domains
//     (cb_nodes = width), aggregators batching to their one server
func t17Point(width int, method collMethod) point {
	pt := interleaved("T17", dafsStack, width, 128, method, mpiio.Hints{NoBatch: method == methodNaive})
	pt.name, pt.warm = "aggr", true
	return pt
}

// T17StripedCollective combines T6 and T15: the interleaved collective
// pattern over a striped file. Per-fragment independent I/O pays one DAFS
// op per 128B fragment regardless of width; the gather planner restores the
// batch win (one request per server), and stripe-aligned two-phase keeps
// each aggregator talking to exactly one server.
func T17StripedCollective() *stats.Table {
	t := &stats.Table{
		ID:    "T17",
		Title: "Strided collective over striping: 4 ranks, 4MB total, 128B interleave",
		Note: "file striped 64KB round-robin across the servers; per-seg = one DAFS op per stripe fragment;\n" +
			"batch = per-server gather plans (one batch request per server per replica);\n" +
			"two-phase = collective with stripe-aligned file domains (cb_nodes = width,\n" +
			"each aggregator's domain maps to exactly one server)",
		Columns: []string{"width", "per-seg MB/s", "batch MB/s", "two-phase MB/s", "batch/per-seg"},
	}
	for _, w := range []int{1, 2, 4} {
		per := measure(t17Point(w, methodNaive)).MBps
		batch := measure(t17Point(w, methodBatch)).MBps
		two := measure(t17Point(w, methodTwoPhase)).MBps
		t.AddRow(itoa(w), stats.BW(per), stats.BW(batch), stats.BW(two), stats.Ratio(batch/per))
	}
	return t
}
