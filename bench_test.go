// Root-level benchmarks: one sub-benchmark per evaluation table/figure.
// Each iteration regenerates the full experiment in simulated time, so wall
// time here measures the simulator; the *results* (printed with -v) are the
// deterministic simulated tables that EXPERIMENTS.md records.
package dafsio_test

import (
	"testing"

	"dafsio/internal/bench"
)

// BenchmarkExperiments runs every experiment but T18, whose 512x64 grid
// alone takes about 26 s and peaks at 1.1-1.3 GB on a 2-core machine, too
// long for one benchmark iteration (run it alone with `mpio run T18`).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All {
		if e.ID == "T18" {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl := e.Run()
				if len(tbl.Rows) == 0 {
					b.Fatalf("%s produced no rows", e.ID)
				}
				if i == 0 {
					b.Logf("\n%s", tbl.String())
				}
			}
		})
	}
}
