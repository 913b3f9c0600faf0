package bench

import (
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// T14DiskBound is the honest negative result the era's papers acknowledge:
// when the server must actually go to the spindle, the disk dominates and
// the transport stops mattering — DAFS's advantage is a *cached-data and
// CPU* story. Client CPU still favors DAFS even here.
func T14DiskBound() *stats.Table {
	t := &stats.Table{
		ID:    "T14",
		Title: "Uncached (disk-bound) server: 256KB reads, 8MB moved",
		Note: "every byte passes the disk model (5ms seek, 30 MB/s media);\n" +
			"the transports converge on disk speed — DAFS pays off on cached data and CPU",
		Columns: []string{"stack", "MB/s", "client cpu ms/MB", "disk busy"},
	}
	timed := func(st stack) (transferResult, float64) {
		pt := seq("T14", st, 256<<10, 8<<20, false)
		pt.disk = true
		c := newCluster(pt, Observation{})
		var res transferResult
		var diskFrac float64
		c.K.Spawn("app", func(p *sim.Proc) {
			f, _ := open(p, c, pt, 0)
			start := p.Now()
			busy0 := c.Disk.BusyTime()
			res = sweep(p, c, f, pt)
			if el := p.Now() - start; el > 0 {
				diskFrac = float64(c.Disk.BusyTime()-busy0) / float64(el)
			}
			f.Close(p)
		})
		end(c, c.Run())
		return res, diskFrac
	}
	d, ddisk := timed(dafsStack)
	n, ndisk := timed(nfsStack)
	t.AddRow("dafs", stats.BW(d.bw), stats.Us(d.cpuMB/1000), stats.Pct(ddisk))
	t.AddRow("nfs", stats.BW(n.bw), stats.Us(n.cpuMB/1000), stats.Pct(ndisk))
	return t
}
