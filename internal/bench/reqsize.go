package bench

import (
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// T2RequestSize reproduces the headline single-client curve: MPI-IO read
// and write bandwidth vs request size, DAFS vs NFS.
func T2RequestSize() *stats.Table {
	t := &stats.Table{
		ID:      "T2",
		Title:   "MPI-IO bandwidth vs request size, one client (cached server)",
		Note:    "sequential requests; DAFS switches inline->direct above 8KB; NFS rsize/wsize = 32KB (noac)",
		Columns: []string{"request", "dafs-rd", "dafs-wr", "nfs-rd", "nfs-wr"},
	}
	for _, size := range []int{512, 2048, 8192, 32768, 131072, 524288, 1 << 20} {
		total := totalFor(size)
		dr := measure(seq("T2", dafsStack, size, total, false))
		dw := measure(seq("T2", dafsStack, size, total, true))
		nr := measure(seq("T2", nfsStack, size, total, false))
		nw := measure(seq("T2", nfsStack, size, total, true))
		t.AddRow(stats.Size(int64(size)),
			stats.BW(dr.MBps), stats.BW(dw.MBps), stats.BW(nr.MBps), stats.BW(nw.MBps))
	}
	return t
}

// T3InlineDirect forces each DAFS transfer discipline across sizes to show
// the crossover that motivates the threshold switch.
func T3InlineDirect() *stats.Table {
	t := &stats.Table{
		ID:      "T3",
		Title:   "DAFS transfer discipline: inline vs direct read bandwidth",
		Note:    "inline carries data in messages (CPU copies both ends); direct uses server-driven RDMA.\nauto = driver threshold at 8KB",
		Columns: []string{"request", "inline MB/s", "direct MB/s", "auto MB/s"},
	}
	// Sessions with a large MaxInline so inline can be forced at all sizes.
	forced := func(size, threshold int) Result {
		pt := seq("T3", dafsStack, size, totalFor(size), false)
		pt.opts = &dafs.Options{MaxInline: 256 << 10}
		pt.tune = func(d *mpiio.StripedDAFSDriver) { d.DirectThreshold = threshold }
		return measure(pt)
	}
	for _, size := range []int{512, 2048, 8192, 32768, 131072, 262144} {
		inline := forced(size, 256<<10)
		direct := forced(size, 0)
		auto := forced(size, 8192)
		t.AddRow(stats.Size(int64(size)),
			stats.BW(inline.MBps), stats.BW(direct.MBps), stats.BW(auto.MBps))
	}
	return t
}

// t4Point is one of T4's rows: one client moving 8MB in 64KB calls.
func t4Point(st stack, write bool) point { return seq("T4", st, 64<<10, 8<<20, write) }

// T4CPUOverhead reports the paper's key efficiency metric: client CPU time
// per megabyte moved.
func T4CPUOverhead() *stats.Table {
	t := &stats.Table{
		ID:      "T4",
		Title:   "Client CPU overhead (64KB requests, 8MB moved)",
		Note:    "CPU ms per MB of data; direct DAFS I/O leaves the client CPU nearly idle",
		Columns: []string{"stack", "MB/s", "cpu ms/MB", "cpu util"},
	}
	add := func(name string, st stack, write bool) {
		r := measure(t4Point(st, write))
		t.AddRow(name, stats.BW(r.MBps), stats.Us(r.cpuMB/1000), stats.Pct(r.cpuUtil()))
	}
	add("dafs read", dafsStack, false)
	add("dafs write", dafsStack, true)
	add("nfs read", nfsStack, false)
	add("nfs write", nfsStack, true)
	return t
}

// T8RegCache quantifies memory-registration cost and the driver's
// registration cache (the per-buffer pinning amortization).
func T8RegCache() *stats.Table {
	t := &stats.Table{
		ID:      "T8",
		Title:   "Registration cache effect on direct writes (16 reuses of one buffer)",
		Note:    "no-cache registers and deregisters the buffer around every operation",
		Columns: []string{"request", "no-cache MB/s", "cache MB/s", "speedup"},
	}
	// One buffer written 16 times, always direct, with no warm-up: the
	// uncached point pays a registration on every call.
	timed := func(size int, cache bool) float64 {
		return measure(point{id: "T8", clients: 1, stack: dafsStack, name: "f", req: size, per: 16 * int64(size), write: true,
			tune: func(d *mpiio.StripedDAFSDriver) {
				d.RegCache = cache
				d.DirectThreshold = 0
			}}).MBps
	}
	for _, size := range []int{4096, 32768, 131072, 524288, 1 << 20} {
		no := timed(size, false)
		yes := timed(size, true)
		t.AddRow(stats.Size(int64(size)), stats.BW(no), stats.BW(yes), stats.Ratio(yes/no))
	}
	return t
}

// T10OpLatency times the metadata operations both stacks share. Every probe
// checks its result — the count of a read or write, the error of the rest —
// and a failed probe fails the experiment. The truncate probe keeps the
// file longer than the 4KB read that follows it.
func T10OpLatency() *stats.Table {
	t := &stats.Table{
		ID:      "T10",
		Title:   "Per-operation latency (average of 8 warm operations)",
		Columns: []string{"operation", "dafs us", "nfs us"},
	}
	type probe struct {
		name string
		run  func(p *sim.Proc, f *mpiio.File, i int) error
	}
	moved := func(size int, write bool) func(p *sim.Proc, f *mpiio.File, i int) error {
		return func(p *sim.Proc, f *mpiio.File, i int) error {
			_, err := point{id: "T10"}.call(p, f, 0, write)(0, make([]byte, size))
			return err
		}
	}
	probes := []probe{
		{"getattr (size)", func(p *sim.Proc, f *mpiio.File, i int) error { _, err := f.GetSize(p); return err }},
		{"truncate", func(p *sim.Proc, f *mpiio.File, i int) error { return f.SetSize(p, int64(64<<10+i)) }},
		{"sync", func(p *sim.Proc, f *mpiio.File, i int) error { return f.Sync(p) }},
		{"512B read", moved(512, false)},
		{"512B write", moved(512, true)},
		{"4KB read", moved(4096, false)},
		{"4KB write", moved(4096, true)},
	}
	timed := func(st stack) []sim.Time {
		out := make([]sim.Time, len(probes))
		pt := point{id: "T10", clients: 1, stack: st, name: "ops", per: 64 << 10}
		c := newCluster(pt, Observation{})
		var failed error
		c.K.Spawn("app", func(p *sim.Proc) {
			f, _ := open(p, c, pt, 0)
			defer f.Close(p)
			for pi, pr := range probes {
				err := pr.run(p, f, 0) // warm
				start := p.Now()
				const iters = 8
				for i := 1; err == nil && i <= iters; i++ {
					err = pr.run(p, f, i)
				}
				if err != nil {
					failed = fmt.Errorf("%s: %w", pr.name, err)
					return
				}
				out[pi] = (p.Now() - start) / iters
			}
		})
		end(c, c.Run())
		if failed != nil {
			panic(fmt.Sprintf("bench: T10: %v", failed))
		}
		return out
	}
	dafsT := timed(dafsStack)
	nfsT := timed(nfsStack)
	for i, pr := range probes {
		t.AddRow(pr.name, stats.Us(dafsT[i]), stats.Us(nfsT[i]))
	}
	return t
}
