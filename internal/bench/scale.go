package bench

import (
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// scalePoint is n clients hammering one server, each reading its own 4MB
// region of a shared file in 64KB calls after a warm-up read.
func scalePoint(n int, st stack) point {
	return point{id: "T5", clients: n, stack: st, name: "shared", req: 64 << 10, per: 4 << 20, warm: true}
}

// T5Scaling reproduces the client-scaling figure: aggregate bandwidth and
// server CPU load as clients are added.
func T5Scaling() *stats.Table {
	t := &stats.Table{
		ID:      "T5",
		Title:   "Aggregate read bandwidth vs number of clients (64KB requests)",
		Note:    "DAFS saturates the server link; NFS saturates the server CPU first",
		Columns: []string{"clients", "dafs MB/s", "dafs srv-cpu", "nfs MB/s", "nfs srv-cpu"},
	}
	for _, n := range []int{1, 2, 4, 6, 8} {
		d := measure(scalePoint(n, dafsStack))
		f := measure(scalePoint(n, nfsStack))
		t.AddRow(itoa(n), stats.BW(d.MBps), stats.Pct(d.srvCPU), stats.BW(f.MBps), stats.Pct(f.srvCPU))
	}
	return t
}

// T9Overlap measures how much of the I/O time nonblocking writes hide
// behind computation.
func T9Overlap() *stats.Table {
	t := &stats.Table{
		ID:      "T9",
		Title:   "Nonblocking I/O overlap (8 iterations of compute + 512KB write)",
		Note:    "overlapped issues iwrite_at, computes, then waits; ideal = max(compute, I/O)",
		Columns: []string{"mode", "elapsed ms", "vs blocking"},
	}
	const (
		iters   = 8
		size    = 512 << 10
		compute = 4 * sim.Millisecond
	)
	pt := point{id: "T9", clients: 1, stack: dafsStack, name: "f", write: true}
	timed := func(overlap bool) sim.Time {
		c := newCluster(pt, Observation{})
		var elapsed sim.Time
		c.K.Spawn("app", func(p *sim.Proc) {
			f, _ := open(p, c, pt, 0)
			node := c.ClientNodes[0]
			// Computation timeshares the CPU in scheduler-quantum slices,
			// so the I/O path's (tiny) CPU needs interleave with it.
			work := func() {
				const quantum = 100 * sim.Microsecond
				for done := sim.Time(0); done < compute; done += quantum {
					node.Compute(p, quantum)
				}
			}
			buf := make([]byte, size)
			f.WriteAt(p, 0, buf) // warm registration
			start := p.Now()
			for i := 0; i < iters; i++ {
				off := int64(i) * size
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
			elapsed = p.Now() - start
			f.Close(p)
		})
		end(c, c.Run())
		return elapsed
	}
	blocking := timed(false)
	overlapped := timed(true)
	t.AddRow("blocking", msFmt(blocking), stats.Ratio(1))
	t.AddRow("overlapped", msFmt(overlapped), stats.Ratio(float64(blocking)/float64(overlapped)))
	return t
}
