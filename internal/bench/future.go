package bench

import (
	"dafsio/internal/model"
	"dafsio/internal/stats"
)

// t12FasterNetworks is the forward-looking experiment (the era's
// future-work argument for RDMA transports): as link rates climb, a
// kernel-path client must spend proportionally more CPU per second to keep
// the pipe full, while the OS-bypass client's CPU cost per byte stays
// constant — so the DAFS advantage *grows* with network speed.
func t12FasterNetworks() Experiment {
	links := []struct {
		name string
		bw   float64
	}{
		{"0.6 Gb/s", 78.125e6},
		{"1.25 Gb/s", 156.25e6},
		{"2.5 Gb/s", 312.5e6},
		{"10 Gb/s", 1250e6},
	}
	var pts []point
	var names []string
	for _, l := range links {
		names = append(names, l.name)
		p := model.CLAN1998()
		p.LinkBandwidth = l.bw
		// Faster fabrics shipped with faster DMA engines; scale the NIC so
		// the link stays the data-path bottleneck, as it did historically.
		if p.DMABandwidth < 2*l.bw {
			p.DMABandwidth = 2 * l.bw
		}
		pts = append(pts, labeled(l.name+" link", seq(dafsStack, 1<<20, 8<<20, false).under(p)),
			labeled(l.name+" link", seq(nfsStack, 1<<20, 8<<20, false).under(p)))
	}
	return Experiment{ID: "T12", Title: "Faster networks widen the gap (future-work projection)", Points: pts, Observe: 3 * 2, // dafs at 10 Gb/s
		Render: rows(stats.Table{
			Title: "Scaling the network: 1MB reads as the SAN gets faster",
			Note: "NIC DMA raised to 2x the link where slower, 1.25 Gb/s included (264 -> 312.5 MB/s),\n" +
				"so that row reads 101.9 MB/s where T2 and T11 read 96.1;\n" +
				"all other constants fixed at clan-1998; nfs-cpu is client CPU while streaming.\n" +
				"faster wires widen the DAFS lead — the historical case for RDMA transports",
			Columns: []string{"link", "dafs MB/s", "nfs MB/s", "ratio", "dafs-cpu", "nfs-cpu"},
		}, names, func(r []Result) []string {
			return append(bws(r), stats.Ratio(r[0].MBps/r[1].MBps), stats.Pct(r[0].cpuUtil()), stats.Pct(r[1].cpuUtil()))
		})}
}

// t13GbEProfile re-runs the request-size curve on the gbe-2000 profile
// (VIA emulated over gigabit Ethernet hardware): slower and
// higher-latency, but the protocol-level conclusions persist on commodity
// parts.
func t13GbEProfile() Experiment {
	sizes := []int{2048, 32768, 524288}
	var pts []point
	for _, size := range sizes {
		for _, st := range []stack{dafsStack, nfsStack} {
			pts = append(pts, labeled("gbe-2000", seq(st, size, totalFor(size), false).under(model.GbE2000())))
		}
	}
	return Experiment{ID: "T13", Title: "Commodity gigabit-Ethernet profile", Points: pts,
		Render: rows(stats.Table{
			Title:   "Request-size curve on the gbe-2000 profile (commodity hardware)",
			Note:    "same software stack; 1 Gb/s store-and-forward Ethernet SAN, 1500B cells",
			Columns: []string{"request", "dafs-rd MB/s", "nfs-rd MB/s", "ratio"},
		}, format(sizes, sizeOf), func(r []Result) []string { return append(bws(r), stats.Ratio(r[0].MBps/r[1].MBps)) })}
}
