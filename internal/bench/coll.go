package bench

import (
	"dafsio/internal/mpiio"
	"dafsio/internal/stats"
)

// collMethod selects how the interleaved pattern is written.
type collMethod int

const (
	methodNaive    collMethod = iota // independent per-segment list I/O
	methodBatch                      // independent DAFS batch I/O (one request, one RDMA)
	methodSieve                      // independent data sieving (read-modify-write)
	methodTwoPhase                   // collective two-phase
)

// interleaved is the 4-rank pattern of T6 and T17: every rank writes 1MB
// (4MB in all) through a view that gives it every 4th block of the file.
func interleaved(id string, st stack, servers int, block int64, method collMethod, hints mpiio.Hints) point {
	return point{
		id: id, clients: 4, servers: servers, stack: st, name: "coll", req: 1 << 20, per: 1 << 20, write: true,
		view: &view{block: block, collective: method == methodTwoPhase, hints: hints},
	}
}

// collPoint writes the interleaved pattern over one DAFS server with the
// given block granularity and method. There is no warm-up call: the
// measured call is each rank's first.
func collPoint(block int64, method collMethod) point {
	return interleaved("T6", dafsStack, 0, block, method,
		mpiio.Hints{Sieving: method == methodSieve, NoBatch: method != methodBatch})
}

// T6Collective reproduces the collective-I/O figure: two-phase collective
// writes vs independent approaches as the interleave granularity varies.
func T6Collective() *stats.Table {
	t := &stats.Table{
		ID:    "T6",
		Title: "Interleaved writes, 4 ranks, 4MB total: independent vs collective (DAFS)",
		Note: "rank r owns every 4th block of the file; naive = one operation per block;\n" +
			"batch = DAFS batch I/O (segment list + one RDMA per request);\n" +
			"sieve = read-modify-write windows; two-phase = ROMIO-style collective buffering",
		Columns: []string{"block", "naive MB/s", "batch MB/s", "sieve MB/s", "two-phase MB/s", "2ph/naive"},
	}
	for _, bs := range []int64{128, 512, 2048, 8192} {
		naive := measure(collPoint(bs, methodNaive)).MBps
		batch := measure(collPoint(bs, methodBatch)).MBps
		sieve := measure(collPoint(bs, methodSieve)).MBps
		two := measure(collPoint(bs, methodTwoPhase)).MBps
		t.AddRow(stats.Size(bs), stats.BW(naive), stats.BW(batch), stats.BW(sieve), stats.BW(two), stats.Ratio(two/naive))
	}
	return t
}
