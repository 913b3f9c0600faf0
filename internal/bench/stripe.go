package bench

import (
	"dafsio/internal/stats"
)

// Striping parameters for T15: 64KB stripes, so a 256KB request fans out
// as one full stripe per server at width 4.
const (
	stripeSize  = 64 << 10
	stripeChunk = 256 << 10
	stripePer   = 4 << 20 // bytes each client moves

	// T18 moves 1MB per client so the top point — 512 clients x 64
	// servers, 32768 dialed sessions, >10k simultaneously live procs —
	// regenerates in seconds; the request and stripe sizes stay T15's, so
	// the curves join up.
	t18Per = 1 << 20
)

// stripePoint is T15's cell: n clients each stream their own per-byte
// region of one file striped over s servers in 256KB calls, every call
// dispatched as concurrent per-server stripe fragments, after a warm-up
// call that fills the registration cache and the per-server handles.
func stripePoint(st stack, n, s int, per int64, write bool) point {
	return point{clients: n, servers: s, stack: st, name: "striped", req: stripeChunk, per: per, write: write, warm: true}
}

// grid fills e with the clients x servers grid of striped points on st,
// and the render that draws t from them: per client count, a read column
// per server count, then a write column at the widest.
func grid(e Experiment, t stats.Table, st stack, per int64, clients, servers []int) Experiment {
	last := servers[len(servers)-1]
	t.Columns = []string{"clients"}
	for _, s := range servers {
		t.Columns = append(t.Columns, itoa(s)+"-srv rd")
	}
	t.Columns = append(t.Columns, itoa(last)+"-srv wr")
	for _, n := range clients {
		for _, s := range servers {
			e.Points = append(e.Points, stripePoint(st, n, s, per, false))
		}
		e.Points = append(e.Points, stripePoint(st, n, last, per, true))
	}
	e.Render = rows(t, format(clients, itoa), bws)
	return e
}

// t15StripedScaling is the multi-server escape from T5's wall: where T5
// flat-lines at one server NIC no matter how many clients push, striping
// the file across servers multiplies the aggregate ceiling.
func t15StripedScaling() Experiment {
	return grid(Experiment{ID: "T15", Title: "Striped aggregate bandwidth: clients x servers", Observe: 1*4 + 1}, stats.Table{
		Title: "Striped aggregate bandwidth: clients x servers (256KB requests, 64KB stripes)",
		Note: "one file striped round-robin across the servers; each request issues one fragment per server in parallel.\n" +
			"1-srv reproduces T5's single-NIC wall; more servers multiply the aggregate ceiling until the client links saturate",
	}, dafsStack, stripePer, []int{1, 2, 4, 8}, []int{1, 2, 4})
}

// t15NStripedNFS is the striped multi-mount NFS baseline on T15's grid:
// the same layout fan-out, but every fragment pays the kernel-stack NFS
// path instead of user-level DAFS.
func t15NStripedNFS() Experiment {
	return grid(Experiment{ID: "T15N", Title: "Striped NFS baseline: multi-mount striping without DAFS", Observe: 1*4 + 1}, stats.Table{
		Title: "Striped NFS baseline: clients x servers over a multi-mount pool (256KB requests, 64KB stripes)",
		Note: "T15's grid with the transport swapped: the same round-robin layout over one NFS mount per server.\n" +
			"striping scales NFS too — the aggregate ceiling multiplies with width — but each point sits below its\n" +
			"T15 twin by the kernel-stack tax, splitting what the layout buys from what user-level DAFS buys",
	}, nfsStack, stripePer, []int{1, 2, 4, 8}, []int{1, 2, 4})
}

// t18WideStriping extends T15's scaling curve to 64 servers and 512
// clients — the population the pre-refactor kernel could not turn around
// interactively (one goroutine per spawned proc, one heap allocation per
// event). The shape to expect: with 64KB stripes a 256KB request still
// touches only 4 consecutive servers, so per-request parallelism is
// T15's; scale comes from hundreds of clients whose stripe phases spread
// uniformly, multiplying the aggregate ceiling roughly with the server
// count until client links or server NICs saturate. Its observed point is
// its smallest, 64 clients reading over 16 servers.
func t18WideStriping() Experiment {
	return grid(Experiment{ID: "T18", Title: "Wide striped scaling: clients x servers at 10k-proc populations"}, stats.Table{
		Title: "Wide striped scaling: clients x servers at 10k-proc populations (256KB requests, 64KB stripes, 1MB/client)",
		Note: "T15's grid two orders of magnitude wider; every client dials every server (512x64 = 32768 sessions at the top point).\n" +
			"a 256KB request still spans 4 stripes, so aggregate bandwidth scales with client spread across servers, not request fan-out",
	}, dafsStack, t18Per, []int{64, 128, 256, 512}, []int{16, 64})
}
