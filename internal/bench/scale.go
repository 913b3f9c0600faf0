package bench

import (
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// scalePoint is n clients hammering one server, each reading its own 4MB
// region of a shared file in 64KB calls after a warm-up read.
func scalePoint(n int, st stack) point {
	return point{clients: n, stack: st, name: "shared", req: 64 << 10, per: 4 << 20, warm: true}
}

// t5Scaling reproduces the client-scaling figure: aggregate bandwidth and
// server CPU load as clients are added.
func t5Scaling() Experiment {
	clients := []int{1, 2, 4, 6, 8}
	var pts []point
	for _, n := range clients {
		pts = append(pts, scalePoint(n, dafsStack), scalePoint(n, nfsStack))
	}
	return Experiment{ID: "T5", Title: "Aggregate bandwidth vs number of clients", Points: pts, Observe: 4 * 2, // 8 dafs clients
		Render: rows(stats.Table{
			Title:   "Aggregate read bandwidth vs number of clients (64KB requests)",
			Note:    "DAFS saturates the server link; NFS saturates the server CPU first",
			Columns: []string{"clients", "dafs MB/s", "dafs srv-cpu", "nfs MB/s", "nfs srv-cpu"},
		}, format(clients, itoa), func(r []Result) []string {
			return []string{stats.BW(r[0].MBps), stats.Pct(r[0].srvCPU), stats.BW(r[1].MBps), stats.Pct(r[1].srvCPU)}
		})}
}

// t9Run times 8 iterations of 4ms of compute and a 512KB write, after a
// warm-up write; overlapped iterations issue the write before the compute
// and wait for it after.
func t9Run(overlap bool) func(point, Observation) Result {
	const (
		t9Iters   = 8
		t9Size    = 512 << 10
		t9Compute = 4 * sim.Millisecond
	)
	return func(pt point, o Observation) Result {
		c := newCluster(pt, o)
		r := Result{Tracer: c.Tracer, Reg: c.Metrics}
		c.K.Spawn("app", func(p *sim.Proc) {
			f, _ := open(p, c, pt, 0)
			node := c.ClientNodes[0]
			// Computation timeshares the CPU in scheduler-quantum slices,
			// so the I/O path's (tiny) CPU needs interleave with it.
			work := func() {
				const quantum = 100 * sim.Microsecond
				for done := sim.Time(0); done < t9Compute; done += quantum {
					node.Compute(p, quantum)
				}
			}
			buf := make([]byte, t9Size)
			f.WriteAt(p, 0, buf) // warm registration
			r.Start = p.Now()
			for i := 0; i < t9Iters; i++ {
				off := int64(i) * t9Size
				if overlap {
					req := f.IwriteAt(p, off, buf)
					work()
					if _, err := req.Wait(p); err != nil {
						panic(err)
					}
				} else {
					if _, err := f.WriteAt(p, off, buf); err != nil {
						panic(err)
					}
					work()
				}
			}
			r.End = p.Now()
			f.Close(p)
		})
		end(c, c.Run())
		r.MBps = stats.MBps(t9Iters*t9Size, r.Elapsed())
		return r
	}
}

// t9Overlap measures how much of the I/O time nonblocking writes hide
// behind computation.
func t9Overlap() Experiment {
	return Experiment{ID: "T9", Title: "Nonblocking I/O compute/transfer overlap", Observe: 1, // overlapped
		Points: []point{
			{label: "blocking", clients: 1, stack: dafsStack, name: "f", write: true, body: t9Run(false)},
			{label: "overlapped", clients: 1, stack: dafsStack, name: "f", write: true, body: t9Run(true)}},
		Render: func(rs []Result) *stats.Table {
			t := &stats.Table{
				Title:   "Nonblocking I/O overlap (8 iterations of compute + 512KB write)",
				Note:    "overlapped issues iwrite_at, computes, then waits; ideal = max(compute, I/O)",
				Columns: []string{"mode", "elapsed ms", "vs blocking"},
			}
			blocking, overlapped := rs[0].Elapsed(), rs[1].Elapsed()
			t.AddRow("blocking", msFmt(blocking), stats.Ratio(1))
			t.AddRow("overlapped", msFmt(overlapped), stats.Ratio(float64(blocking)/float64(overlapped)))
			return t
		}}
}
