package bench

import (
	"dafsio/internal/model"
	"dafsio/internal/stats"
)

// T12FasterNetworks is the forward-looking experiment (the era's
// future-work argument for RDMA transports): as link rates climb, a
// kernel-path client must spend proportionally more CPU per second to keep
// the pipe full, while the OS-bypass client's CPU cost per byte stays
// constant — so the DAFS advantage *grows* with network speed.
func T12FasterNetworks() *stats.Table {
	t := &stats.Table{
		ID:    "T12",
		Title: "Scaling the network: 1MB reads as the SAN gets faster",
		Note: "NIC DMA raised to 2x the link where slower, 1.25 Gb/s included (264 -> 312.5 MB/s),\n" +
			"so that row reads 101.9 MB/s where T2 and T11 read 96.1;\n" +
			"all other constants fixed at clan-1998; nfs-cpu is client CPU while streaming.\n" +
			"faster wires widen the DAFS lead — the historical case for RDMA transports",
		Columns: []string{"link", "dafs MB/s", "nfs MB/s", "ratio", "dafs-cpu", "nfs-cpu"},
	}
	const (
		size  = 1 << 20
		total = 8 << 20
	)
	links := []struct {
		name string
		bw   float64
	}{
		{"0.6 Gb/s", 78.125e6},
		{"1.25 Gb/s", 156.25e6},
		{"2.5 Gb/s", 312.5e6},
		{"10 Gb/s", 1250e6},
	}
	for _, l := range links {
		mk := func() *model.Profile {
			p := model.CLAN1998()
			p.LinkBandwidth = l.bw
			// Faster fabrics shipped with faster DMA engines; scale the
			// NIC so the link stays the data-path bottleneck, as it did
			// historically.
			if p.DMABandwidth < 2*l.bw {
				p.DMABandwidth = 2 * l.bw
			}
			return p
		}
		d := measure(seq("T12", dafsStack, size, total, false).under(mk()))
		n := measure(seq("T12", nfsStack, size, total, false).under(mk()))
		t.AddRow(l.name,
			stats.BW(d.MBps), stats.BW(n.MBps), stats.Ratio(d.MBps/n.MBps),
			stats.Pct(d.cpuUtil()), stats.Pct(n.cpuUtil()))
	}
	return t
}

// T13GbEProfile re-runs the request-size curve on the gbe-2000 profile
// (VIA emulated over gigabit Ethernet hardware): slower and
// higher-latency, but the protocol-level conclusions persist on commodity
// parts.
func T13GbEProfile() *stats.Table {
	t := &stats.Table{
		ID:      "T13",
		Title:   "Request-size curve on the gbe-2000 profile (commodity hardware)",
		Note:    "same software stack; 1 Gb/s store-and-forward Ethernet SAN, 1500B cells",
		Columns: []string{"request", "dafs-rd MB/s", "nfs-rd MB/s", "ratio"},
	}
	for _, size := range []int{2048, 32768, 524288} {
		total := totalFor(size)
		d := measure(seq("T13", dafsStack, size, total, false).under(model.GbE2000()))
		n := measure(seq("T13", nfsStack, size, total, false).under(model.GbE2000()))
		t.AddRow(stats.Size(int64(size)), stats.BW(d.MBps), stats.BW(n.MBps), stats.Ratio(d.MBps/n.MBps))
	}
	return t
}
