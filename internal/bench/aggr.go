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
	pt := interleaved(dafsStack, width, 128, method, mpiio.Hints{NoBatch: method == methodNaive})
	pt.name, pt.warm = "aggr", true
	return pt
}

// t17StripedCollective combines T6 and T15: the interleaved collective
// pattern over a striped file. Per-fragment independent I/O pays one DAFS
// op per 128B fragment regardless of width; the gather planner restores the
// batch win (one request per server), and stripe-aligned two-phase keeps
// each aggregator talking to exactly one server.
func t17StripedCollective() Experiment {
	widths := []int{1, 2, 4}
	var pts []point
	for _, w := range widths {
		pts = append(pts, t17Point(w, methodNaive), t17Point(w, methodBatch), t17Point(w, methodTwoPhase))
	}
	return Experiment{ID: "T17", Title: "Strided collective over striping: aligned domains + batch gather",
		Points: pts, Observe: 1*3 + 2, // two-phase at width 2
		Render: rows(stats.Table{
			Title: "Strided collective over striping: 4 ranks, 4MB total, 128B interleave",
			Note: "file striped 64KB round-robin across the servers; per-seg = one DAFS op per stripe fragment;\n" +
				"batch = per-server gather plans (one batch request per server per replica);\n" +
				"two-phase = collective with stripe-aligned file domains (cb_nodes = width,\n" +
				"each aggregator's domain maps to exactly one server)",
			Columns: []string{"width", "per-seg MB/s", "batch MB/s", "two-phase MB/s", "batch/per-seg"},
		}, format(widths, itoa), func(r []Result) []string { return append(bws(r), stats.Ratio(r[1].MBps/r[0].MBps)) })}
}
