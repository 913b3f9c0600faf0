package bench

import (
	"dafsio/internal/model"
	"dafsio/internal/stats"
)

// T11Sensitivity is the threats-to-validity ablation: it perturbs the cost
// model's most influential constants and shows that the paper's headline
// ratios (DAFS-over-NFS bandwidth, and the client-CPU-per-byte gap) are
// structural, not artifacts of the chosen numbers.
func T11Sensitivity() *stats.Table {
	t := &stats.Table{
		ID:    "T11",
		Title: "Model sensitivity: DAFS:NFS ratios under perturbed constants (1MB requests)",
		Note: "bw-ratio = DAFS/NFS bandwidth; cpu-ratio = NFS/DAFS client CPU per byte.\n" +
			"the winner and the order of magnitude survive every perturbation",
		Columns: []string{"variant", "dafs MB/s", "nfs MB/s", "bw-ratio", "cpu-ratio"},
	}
	variants := []struct {
		name string
		mod  func(p *model.Profile)
	}{
		{"baseline", func(p *model.Profile) {}},
		{"link/2", func(p *model.Profile) { p.LinkBandwidth /= 2 }},
		{"link x2", func(p *model.Profile) { p.LinkBandwidth *= 2 }},
		{"memcpy/2", func(p *model.Profile) { p.MemCopyBW /= 2 }},
		{"memcpy x2", func(p *model.Profile) { p.MemCopyBW *= 2 }},
		{"interrupt x2", func(p *model.Profile) { p.InterruptCost *= 2 }},
		{"pktcost x2", func(p *model.Profile) { p.PktCost *= 2 }},
		{"dma/2", func(p *model.Profile) { p.DMABandwidth /= 2 }},
	}
	const (
		size  = 1 << 20
		total = 8 << 20
	)
	for _, v := range variants {
		dp := model.CLAN1998()
		v.mod(dp)
		np := model.CLAN1998()
		v.mod(np)
		d := measure(seq("T11", dafsStack, size, total, false).under(dp))
		n := measure(seq("T11", nfsStack, size, total, false).under(np))
		t.AddRow(v.name,
			stats.BW(d.MBps), stats.BW(n.MBps),
			stats.Ratio(d.MBps/n.MBps),
			stats.Ratio(float64(n.cpuMB)/float64(d.cpuMB)))
	}
	return t
}
