package mpiio

import (
	"bytes"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// TestScratchOwnedPerCall puts three noncontiguous calls in flight at once
// on every rank's driver — two nonblocking strided IwriteAt requests on one
// file and a split collective WriteAtAllBegin on a second, each call parked
// in the middle of its work while the others run — and checks both files
// byte for byte against a flat model built here. Each call must work in a
// set of buffers of its own until its last operation is waited: calls
// sharing one set write their pieces to one another's places. It runs over
// DAFS at width 1 (the exchange buffers are the list windows) and at width
// 4 (they stage), and over NFS, whose leaf has no batch I/O (NoBatch: the
// per-segment path and the collective buffer).
func TestScratchOwnedPerCall(t *testing.T) {
	const (
		ranks           = 4
		blockA, blocksA = 96, 24  // file A: each request writes half the blocks
		blockB, blocksB = 200, 40 // file B: one collective over every block
	)
	for _, tc := range []struct {
		name  string
		cfg   cluster.Config
		width int
	}{
		{"dafs-1", cluster.Config{Clients: ranks, Servers: 1, DAFS: true, MPI: true}, 1},
		{"dafs-4", cluster.Config{Clients: ranks, Servers: 4, DAFS: true, MPI: true}, 4},
		{"nfs", cluster.Config{Clients: ranks, NFS: true, MPI: true}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The flat models: rank r owns every ranks-th block of each file.
			wantA := make([]byte, ranks*blockA*blocksA)
			wantB := make([]byte, ranks*blockB*blocksB)
			var as, bs [ranks][]byte
			mine := func(want []byte, block, r int, seed byte) []byte {
				data := make([]byte, len(want)/ranks)
				for v := range data {
					data[v] = seed + byte(r*37) + byte(v%251)
					want[(v/block*ranks+r)*block+v%block] = data[v]
				}
				return data
			}
			for r := range ranks {
				as[r], bs[r] = mine(wantA, blockA, r, 1), mine(wantB, blockB, r, 101)
			}
			c := cluster.New(tc.cfg)
			defer c.K.Shutdown()
			err := c.SpawnClients(func(p *sim.Proc, i int) {
				var drv Driver
				if tc.cfg.NFS {
					m, err := c.MountNFS(p, i, nil)
					if err != nil {
						t.Errorf("mount %d: %v", i, err)
						return
					}
					drv = NewNFSDriver(m)
				} else {
					pool, err := c.DialDAFSAll(p, i, nil)
					if err != nil {
						t.Errorf("dial %d: %v", i, err)
						return
					}
					drv = NewStripedDAFSDriver(pool, layout.Striping{StripeSize: 1000, Width: tc.width})
				}
				r := c.World.Rank(i)
				fa, err := Open(p, r, drv, "a", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Errorf("rank %d open a: %v", i, err)
					return
				}
				fb, err := Open(p, r, drv, "b", ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Errorf("rank %d open b: %v", i, err)
					return
				}
				fa.SetView(int64(i*blockA), Vector(blocksA, blockA, ranks*blockA))
				fb.SetView(int64(i*blockB), Vector(blocksB, blockB, ranks*blockB))
				a, b := as[i], bs[i]
				half := len(a) / 2
				reqs := []*Request{
					fb.WriteAtAllBegin(p, 0, b),
					fa.IwriteAt(p, 0, a[:half]),
					fa.IwriteAt(p, int64(half), a[half:]),
				}
				for k, want := range []int{len(b), half, len(a) - half} {
					if n, err := reqs[k].Wait(p); n != want || err != nil {
						t.Errorf("rank %d request %d: n=%d err=%v", i, k, n, err)
					}
				}
				r.Barrier(p)
				if i == 0 {
					for _, f := range []struct {
						f    *File
						want []byte
					}{{fa, wantA}, {fb, wantB}} {
						f.f.SetView(0, nil)
						got := make([]byte, len(f.want))
						if n, err := f.f.ReadAt(p, 0, got); n != len(got) || err != nil {
							t.Errorf("read back %s: n=%d err=%v", f.f.name, n, err)
						} else if !bytes.Equal(got, f.want) {
							t.Errorf("file %s differs from the model at byte %d", f.f.name, firstDiff(got, f.want))
						}
					}
				}
				fa.Close(p)
				fb.Close(p)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// firstDiff is the first index where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
