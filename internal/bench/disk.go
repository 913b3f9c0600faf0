package bench

import "dafsio/internal/stats"

// t14DiskBound is the negative result the era's papers acknowledge: when
// the server must go to the spindle, DAFS's bandwidth lead over NFS on
// cached data is gone. Client CPU still favors DAFS.
func t14DiskBound() Experiment {
	stacks := []stack{dafsStack, nfsStack}
	var pts []point
	for _, st := range stacks {
		pt := labeled("disk-bound server", seq(st, 256<<10, 8<<20, false))
		pt.disk = true
		pts = append(pts, pt)
	}
	return Experiment{ID: "T14", Title: "Disk-bound server: NFS leads on bandwidth (negative result)", Points: pts,
		Render: rows(stats.Table{
			Title: "Uncached (disk-bound) server: 256KB reads, 8MB moved",
			Note: "every byte passes the disk model (5ms seek, 30 MB/s media);\n" +
				"NFS leads on bandwidth, and DAFS leaves the disk idle about a quarter of the window;\n" +
				"DAFS's client CPU stays near zero",
			Columns: []string{"stack", "MB/s", "client cpu ms/MB", "disk busy"},
		}, format(stacks, stack.String), func(r []Result) []string {
			return []string{stats.BW(r[0].MBps), stats.Us(r[0].cpuMB / 1000), stats.Pct(r[0].disk)}
		})}
}
