package bench

import "dafsio/internal/stats"

// T14DiskBound is the negative result the era's papers acknowledge: when
// the server must go to the spindle, DAFS's bandwidth lead over NFS on
// cached data is gone. Client CPU still favors DAFS.
func T14DiskBound() *stats.Table {
	t := &stats.Table{
		ID:    "T14",
		Title: "Uncached (disk-bound) server: 256KB reads, 8MB moved",
		Note: "every byte passes the disk model (5ms seek, 30 MB/s media);\n" +
			"NFS leads on bandwidth, and DAFS leaves the disk idle about a quarter of the window;\n" +
			"DAFS's client CPU stays near zero",
		Columns: []string{"stack", "MB/s", "client cpu ms/MB", "disk busy"},
	}
	row := func(name string, st stack) {
		pt := seq("T14", st, 256<<10, 8<<20, false)
		pt.disk = true
		r := measure(pt)
		t.AddRow(name, stats.BW(r.MBps), stats.Us(r.cpuMB/1000), stats.Pct(r.disk))
	}
	row("dafs", dafsStack)
	row("nfs", nfsStack)
	return t
}
