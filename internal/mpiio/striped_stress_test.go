package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// TestStripedStress hammers one shared StripedDAFSDriver from many
// simulated processes at once: every worker mixes inline and direct
// traffic on a private file (contending for the shared session pool,
// credits, and registration cache), then the pack converges on one shared
// file — first disjoint extents that must survive verbatim, then fully
// overlapping writes whose winner is decided by completion order. The
// schedule runs twice and must reproduce both the final simulated time
// and the shared file's bytes; under `go test -race` it also exercises
// the kernel's goroutine handoffs on every contended wait point.
func TestStripedStress(t *testing.T) {
	const (
		servers = 4
		stripe  = int64(16 << 10) // fragments above MaxInline: direct path
		workers = 8
		iters   = 3
		block   = 4 << 10 // per-worker extent in the shared file
	)
	run := func() (sim.Time, []byte) {
		c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true})
		var shared []byte
		c.K.Spawn("boss", func(p *sim.Proc) {
			pool, err := c.DialDAFSAll(p, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers})
			sh, err := drv.Open(p, "shared", ModeRdWr|ModeCreate)
			if err != nil {
				t.Error(err)
				return
			}
			wg := sim.NewWaitGroup(c.K, workers)
			for w := 0; w < workers; w++ {
				w := w
				c.K.Spawn(fmt.Sprintf("worker%d", w), func(p *sim.Proc) {
					defer wg.Done()
					h, err := drv.Open(p, fmt.Sprintf("priv%d", w), ModeRdWr|ModeCreate)
					if err != nil {
						t.Errorf("worker %d: open: %v", w, err)
						return
					}
					small := bytes.Repeat([]byte{byte(w + 1)}, 512)
					large := bytes.Repeat([]byte{byte(w + 101)}, int(stripe)*servers)
					for it := 0; it < iters; it++ {
						off := int64(it) * stripe * int64(servers)
						if _, err := transfer(p, h, off+int64(w), small, true); err != nil {
							t.Errorf("worker %d: inline write: %v", w, err)
							return
						}
						if _, err := transfer(p, h, off, large, true); err != nil {
							t.Errorf("worker %d: direct write: %v", w, err)
							return
						}
						got := make([]byte, len(large))
						if _, err := transfer(p, h, off, got, false); err != nil {
							t.Errorf("worker %d: read: %v", w, err)
							return
						}
						if !bytes.Equal(got, large) {
							t.Errorf("worker %d: iter %d: private data corrupted", w, it)
							return
						}
						if err := h.Sync(p); err != nil {
							t.Errorf("worker %d: sync: %v", w, err)
							return
						}
						if _, err := h.Size(p); err != nil {
							t.Errorf("worker %d: size: %v", w, err)
							return
						}
					}
					if err := h.Close(p); err != nil {
						t.Errorf("worker %d: close: %v", w, err)
						return
					}
					// Disjoint extent of the shared file: must survive intact.
					mine := bytes.Repeat([]byte{byte(w + 1)}, block)
					if _, err := transfer(p, sh, int64(w)*block, mine, true); err != nil {
						t.Errorf("worker %d: shared write: %v", w, err)
						return
					}
					// Overlapping region past the disjoint extents: the
					// deterministic schedule decides whose bytes stick.
					clash := bytes.Repeat([]byte{byte(w + 201)}, block)
					if _, err := transfer(p, sh, int64(workers)*block, clash, true); err != nil {
						t.Errorf("worker %d: overlapping write: %v", w, err)
						return
					}
					if err := sh.Sync(p); err != nil {
						t.Errorf("worker %d: shared sync: %v", w, err)
					}
				})
			}
			wg.Wait(p)
			total := (workers + 1) * block
			shared = make([]byte, total)
			if _, err := transfer(p, sh, 0, shared, false); err != nil {
				t.Error(err)
				return
			}
			for w := 0; w < workers; w++ {
				want := bytes.Repeat([]byte{byte(w + 1)}, block)
				if !bytes.Equal(shared[w*block:(w+1)*block], want) {
					t.Errorf("worker %d extent corrupted by concurrent traffic", w)
				}
			}
			if err := sh.Close(p); err != nil {
				t.Error(err)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.K.Now(), shared
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 {
		t.Errorf("simulated time not reproducible: %v vs %v", t1, t2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("shared file contents not reproducible across runs")
	}
}
