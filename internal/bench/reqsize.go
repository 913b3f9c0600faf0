package bench

import (
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
	"dafsio/internal/via"
)

// t2RequestSize reproduces the headline single-client curve: MPI-IO read
// and write bandwidth vs request size, DAFS vs NFS.
func t2RequestSize() Experiment {
	sizes := []int{512, 2048, 8192, 32768, 131072, 524288, 1 << 20}
	var pts []point
	for _, size := range sizes {
		total := totalFor(size)
		pts = append(pts, seq(dafsStack, size, total, false), seq(dafsStack, size, total, true),
			seq(nfsStack, size, total, false), seq(nfsStack, size, total, true))
	}
	return Experiment{ID: "T2", Title: "MPI-IO bandwidth vs request size: DAFS vs NFS (1 client)", Points: pts, Observe: 6 * 4, // 1MB dafs read
		Render: rows(stats.Table{
			Title:   "MPI-IO bandwidth vs request size, one client (cached server)",
			Note:    "sequential requests; DAFS switches inline->direct above 8KB; NFS rsize/wsize = 32KB (noac)",
			Columns: []string{"request", "dafs-rd", "dafs-wr", "nfs-rd", "nfs-wr"},
		}, format(sizes, sizeOf), bws)}
}

// t3InlineDirect forces each DAFS transfer discipline across sizes to show
// the crossover that motivates the threshold switch.
func t3InlineDirect() Experiment {
	// Sessions with a large MaxInline so inline can be forced at all sizes.
	forced := func(label string, size, threshold int) point {
		pt := labeled(label, seq(dafsStack, size, totalFor(size), false))
		pt.opts = &dafs.Options{MaxInline: 256 << 10}
		pt.tune = func(d *mpiio.StripedDAFSDriver, _ *via.NIC) { d.DirectThreshold = threshold }
		return pt
	}
	sizes := []int{512, 2048, 8192, 32768, 131072, 262144}
	var pts []point
	for _, size := range sizes {
		pts = append(pts, forced("inline", size, 256<<10), forced("direct", size, 0), forced("auto", size, 8192))
	}
	return Experiment{ID: "T3", Title: "DAFS inline vs direct transfer discipline", Points: pts, Observe: 3*3 + 1, // 32KB direct
		Render: rows(stats.Table{
			Title:   "DAFS transfer discipline: inline vs direct read bandwidth",
			Note:    "inline carries data in messages (CPU copies both ends); direct uses server-driven RDMA.\nauto = driver threshold at 8KB",
			Columns: []string{"request", "inline MB/s", "direct MB/s", "auto MB/s"},
		}, format(sizes, sizeOf), bws)}
}

// t4CPUOverhead reports the paper's key efficiency metric: client CPU time
// per megabyte moved, by one client moving 8MB in 64KB calls.
func t4CPUOverhead() Experiment {
	return Experiment{ID: "T4", Title: "Client CPU overhead per megabyte",
		Points: []point{seq(dafsStack, 64<<10, 8<<20, false), seq(dafsStack, 64<<10, 8<<20, true),
			seq(nfsStack, 64<<10, 8<<20, false), seq(nfsStack, 64<<10, 8<<20, true)},
		Render: rows(stats.Table{
			Title:   "Client CPU overhead (64KB requests, 8MB moved)",
			Note:    "CPU ms per MB of data; direct DAFS I/O leaves the client CPU nearly idle",
			Columns: []string{"stack", "MB/s", "cpu ms/MB", "cpu util"},
		}, []string{"dafs read", "dafs write", "nfs read", "nfs write"}, func(r []Result) []string {
			return []string{stats.BW(r[0].MBps), stats.Us(r[0].cpuMB / 1000), stats.Pct(r[0].cpuUtil())}
		})}
}

// t8RegCache quantifies memory-registration cost and the client NIC's
// registration cache (the per-buffer pinning amortization): one buffer
// written 16 times, always direct, with no warm-up, so the uncached point
// pays a registration on every call.
func t8RegCache() Experiment {
	timed := func(label string, size int, cache bool) point {
		return point{label: label, clients: 1, stack: dafsStack, name: "f", req: size, per: 16 * int64(size), write: true,
			tune: func(d *mpiio.StripedDAFSDriver, nic *via.NIC) {
				nic.RegCache = cache
				d.DirectThreshold = 0
			}}
	}
	sizes := []int{4096, 32768, 131072, 524288, 1 << 20}
	var pts []point
	for _, size := range sizes {
		pts = append(pts, timed("no cache", size, false), timed("registration cache", size, true))
	}
	return Experiment{ID: "T8", Title: "Memory registration cost and the registration cache", Points: pts,
		Render: rows(stats.Table{
			Title:   "Registration cache effect on direct writes (16 reuses of one buffer)",
			Note:    "no-cache registers and deregisters the buffer around every operation",
			Columns: []string{"request", "no-cache MB/s", "cache MB/s", "speedup"},
		}, format(sizes, sizeOf), func(r []Result) []string { return append(bws(r), stats.Ratio(r[1].MBps/r[0].MBps)) })}
}

// t10Probes are the metadata operations both stacks share, and reads and
// writes of two sizes. Every probe checks its result — the count of a read
// or write, the error of the rest — and a failed probe fails the
// experiment. The truncate probe keeps the file longer than the 4KB read
// that follows it.
var t10Probes = []struct {
	name string
	run  func(pt point, p *sim.Proc, f *mpiio.File, i int) error
}{
	{"getattr (size)", func(_ point, p *sim.Proc, f *mpiio.File, _ int) error { _, err := f.GetSize(p); return err }},
	{"truncate", func(_ point, p *sim.Proc, f *mpiio.File, i int) error { return f.SetSize(p, int64(64<<10+i)) }},
	{"sync", func(_ point, p *sim.Proc, f *mpiio.File, _ int) error { return f.Sync(p) }},
	{"512B read", moved(512, false)},
	{"512B write", moved(512, true)},
	{"4KB read", moved(4096, false)},
	{"4KB write", moved(4096, true)},
}

// t10Iters is how many warm operations each probe averages.
const t10Iters = 8

// moved is a T10 probe that reads or writes size bytes at offset 0.
func moved(size int, write bool) func(point, *sim.Proc, *mpiio.File, int) error {
	return func(pt point, p *sim.Proc, f *mpiio.File, _ int) error {
		_, err := pt.call(p, f, 0, write)(0, make([]byte, size))
		return err
	}
}

// t10Run times every probe in turn over one file: one warm operation, then
// t10Iters more, each probe's a phase of the result.
func t10Run(pt point, o Observation) Result {
	c := newCluster(pt, o)
	r := Result{Tracer: c.Tracer, Reg: c.Metrics, phases: make([]phase, len(t10Probes))}
	c.K.Spawn("app", func(p *sim.Proc) {
		f, _ := open(p, c, pt, 0)
		defer f.Close(p)
		r.Start = p.Now()
		for pi, pr := range t10Probes {
			err := pr.run(pt, p, f, 0) // warm
			start := p.Now()
			for i := 1; err == nil && i <= t10Iters; i++ {
				err = pr.run(pt, p, f, i)
			}
			if err != nil {
				r.Err = fmt.Errorf("%s: %w", pr.name, err)
				return
			}
			r.phases[pi] = phase{start: start, end: p.Now()}
		}
		r.End = p.Now()
	})
	end(c, c.Run())
	return r
}

// t10OpLatency times the probes over each stack.
func t10OpLatency() Experiment {
	probes := func(st stack) point {
		return point{label: fmt.Sprintf("%v: %d probes, %d warm operations each", st, len(t10Probes), t10Iters),
			clients: 1, stack: st, name: "ops", per: 64 << 10, body: t10Run}
	}
	return Experiment{ID: "T10", Title: "Per-operation latency: DAFS vs NFS",
		Points: []point{probes(dafsStack), probes(nfsStack)},
		Render: func(rs []Result) *stats.Table {
			t := &stats.Table{
				Title:   "Per-operation latency (average of 8 warm operations)",
				Columns: []string{"operation", "dafs us", "nfs us"},
			}
			for i, pr := range t10Probes {
				t.AddRow(pr.name, stats.Us(rs[0].phases[i].dur()/t10Iters), stats.Us(rs[1].phases[i].dur()/t10Iters))
			}
			return t
		}}
}
