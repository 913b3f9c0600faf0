package mpiio

import (
	"runtime"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/sim"
)

// TestPerSegRecordsInChunks: a per-segment call starts every op before it
// waits any, so on a fresh driver a 512-segment NoBatch write makes 512
// contiguous ops and as many DAFS calls at once. Both are made in chunks,
// each as large as all the chunks before it, so the call allocates O(log)
// records: 59 heap allocations in all (10 chunks of ops, 10 of calls, 9
// for the ops' free list to grow, and the simulation's own), where one op
// and one call a segment made 1,062. The ops made stay within twice the
// high-water.
func TestPerSegRecordsInChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nsegs = 512
	batchRig(t, &Hints{NoBatch: true}, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		f.SetView(0, Vector(nsegs, 128, 512))
		buf := body(nsegs*128, 0x7)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := f.WriteAt(p, 0, buf); err != nil {
			t.Error(err)
			return
		}
		runtime.ReadMemStats(&m1)
		if m, budget := m1.Mallocs-m0.Mallocs, uint64(nsegs/4); m > budget {
			t.Errorf("a fresh %d-segment call made %d heap allocations, budget %d", nsegs, m, budget)
		} else {
			t.Logf("a fresh %d-segment call made %d heap allocations", nsegs, m)
		}
		if made := f.drv.core().madeFragOps; made < nsegs || made > 2*nsegs {
			t.Errorf("%d ops made for %d in flight", made, nsegs)
		}
	})
}
