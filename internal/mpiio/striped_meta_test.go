package mpiio

import (
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// stripedMetaLatency measures the simulated latency of each metadata
// operation on a striped driver over the given number of servers.
func stripedMetaLatency(t *testing.T, servers int) (open, sync, size, resize sim.Time) {
	t.Helper()
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 4 << 10, Width: servers})

		t0 := p.Now()
		h, err := drv.Open(p, "m", ModeRdWr|ModeCreate)
		if err != nil {
			t.Error(err)
			return
		}
		open = p.Now() - t0

		t0 = p.Now()
		if err := h.Sync(p); err != nil {
			t.Error(err)
			return
		}
		sync = p.Now() - t0

		t0 = p.Now()
		if _, err := h.Size(p); err != nil {
			t.Error(err)
			return
		}
		size = p.Now() - t0

		t0 = p.Now()
		if err := h.Resize(p, int64(servers)*(4<<10)); err != nil {
			t.Error(err)
			return
		}
		resize = p.Now() - t0

		if err := h.Close(p); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return open, sync, size, resize
}

// TestStripedMetadataConcurrent pins the concurrent metadata path: every
// striped metadata operation issues its per-server requests in one wave,
// so the width-4 latency must stay near one round trip. A serial
// implementation costs about Width round trips — the 2x bound separates
// the two regimes with plenty of margin on both sides.
func TestStripedMetadataConcurrent(t *testing.T) {
	o1, s1, z1, r1 := stripedMetaLatency(t, 1)
	o4, s4, z4, r4 := stripedMetaLatency(t, 4)
	for _, tc := range []struct {
		name   string
		w1, w4 sim.Time
	}{
		{"Open", o1, o4},
		{"Sync", s1, s4},
		{"Size", z1, z4},
		{"Resize", r1, r4},
	} {
		if tc.w1 <= 0 || tc.w4 <= 0 {
			t.Errorf("%s: non-positive latency (w1=%v w4=%v)", tc.name, tc.w1, tc.w4)
			continue
		}
		if tc.w4 >= 2*tc.w1 {
			t.Errorf("%s: width-4 latency %v >= 2x width-1 latency %v; per-server ops look serialized", tc.name, tc.w4, tc.w1)
		}
	}
}

// With metrics off a striped driver builds no instrument name: its
// metrics are one allocation, the per-server dispatch slice, at any width.
func TestStripedMetricsOffBuildNoNames(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { newStripedMetrics(nil, "client0", 32) }); n != 1 {
		t.Fatalf("newStripedMetrics with no registry: %v allocations, want 1", n)
	}
}
