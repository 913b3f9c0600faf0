package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dafsio/internal/aggregate"
	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// collShape is one seeded interleaved access: the active ranks split the
// file into block-byte blocks round-robin from disp, each rank moving
// blocks of them; one more rank, when empty >= 0, joins every collective
// with nothing to move.
type collShape struct {
	ranks, active int // world size; ranks holding blocks
	empty         int // the rank with an empty buffer, or -1
	width         int
	stripe, block int64
	blocks        int64 // per active rank
	disp          int64
	hints         Hints
}

func randCollShape(rng *rand.Rand) collShape {
	s := collShape{empty: -1, width: 1 + rng.Intn(4), stripe: 1 + rng.Int63n(4096)}
	s.ranks = 2 + rng.Intn(5)
	s.active = s.ranks
	if rng.Intn(3) == 0 {
		s.empty = rng.Intn(s.ranks)
		s.active--
	}
	s.block = 1 + rng.Int63n(int64(1)<<rng.Intn(14)) // 1 B to 8 KB, log-spread
	s.blocks = 1 + rng.Int63n(min(64, max(1, (16<<10)/s.block)))
	s.disp = rng.Int63n(4096)
	s.hints.CollBufSize = []int{0, 4096, 1000}[rng.Intn(3)]
	s.hints.NoBatch = rng.Intn(4) == 0
	return s
}

func (s collShape) String() string {
	return fmt.Sprintf("%d ranks (%d active, empty %d), width %d, stripe %d, %d x %d B blocks from %d, hints %+v",
		s.ranks, s.active, s.empty, s.width, s.stripe, s.blocks, s.block, s.disp, s.hints)
}

// slot is rank r's position among the active ranks, or -1 for the empty one.
func (s collShape) slot(r int) int {
	switch {
	case r == s.empty:
		return -1
	case s.empty >= 0 && r > s.empty:
		return r - 1
	}
	return r
}

// data is what rank r moves: distinct per rank, shape and offset.
func (s collShape) data(r int, seed int) []byte {
	k := s.slot(r)
	if k < 0 {
		return nil
	}
	b := make([]byte, s.block*s.blocks)
	for i := range b {
		b[i] = byte(k*37+seed) ^ byte(i) ^ byte(i>>8)
	}
	return b
}

// size is the length of the dense extent the active ranks cover from disp.
func (s collShape) size() int64 { return int64(s.active) * s.blocks * s.block }

// want is the file's extent after every rank's write.
func (s collShape) want(seed int) []byte {
	out := make([]byte, s.size())
	for r := 0; r < s.ranks; r++ {
		k, d := s.slot(r), s.data(r, seed)
		for j := int64(0); k >= 0 && j < s.blocks; j++ {
			copy(out[(j*int64(s.active)+int64(k))*s.block:], d[j*s.block:(j+1)*s.block])
		}
	}
	return out
}

// straddles reports whether some block crosses a file-domain boundary of
// the partition two-phase builds for this shape over the striped driver.
func (s collShape) straddles() bool {
	st := layout.Striping{StripeSize: s.stripe, Width: s.width}
	pt := aggregate.Domains(st, s.disp, s.disp+s.size(), s.ranks, true)
	for off := s.disp; off < s.disp+s.size(); off += s.block {
		if _, hi := pt.Owner(off); hi < off+s.block {
			return true
		}
	}
	return false
}

// run moves the shape on a fresh cluster: every rank writes its blocks,
// collectively or not, and reads them back the same way; then rank 0 reads
// the whole extent through a flat view. It returns that extent.
func (s collShape) run(t *testing.T, stack string, collective bool, seed int) []byte {
	t.Helper()
	cfg := cluster.Config{Clients: s.ranks, MPI: true}
	if stack == "dafs" {
		cfg.Servers, cfg.DAFS = s.width, true
	}
	c := cluster.New(cfg)
	defer c.K.Shutdown() // reclaim the parked procs: a run of shapes makes hundreds of clusters
	var extent []byte
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		var drv Driver = NewMemDriver(c.ClientNodes[i], c.Store)
		if stack == "dafs" {
			pool, err := c.DialDAFSAll(p, i, nil)
			if err != nil {
				t.Errorf("%s: dial %d: %v", stack, i, err)
				return
			}
			drv = NewStripedDAFSDriver(pool, layout.Striping{StripeSize: s.stripe, Width: s.width})
		}
		r := c.World.Rank(i)
		f, err := Open(p, r, drv, "shape", ModeRdWr|ModeCreate, &s.hints)
		if err != nil {
			t.Errorf("%s: open %d: %v", stack, i, err)
			return
		}
		defer f.Close(p)
		if k := s.slot(i); k >= 0 {
			f.SetView(s.disp+int64(k)*s.block, Vector(s.blocks, s.block, int64(s.active)*s.block))
		}
		mine := s.data(i, seed)
		write, read := f.WriteAt, f.ReadAt
		if collective {
			write, read = f.WriteAtAll, f.ReadAtAll
		}
		if n, err := write(p, 0, mine); n != len(mine) || err != nil {
			t.Errorf("%s: rank %d write: n=%d err=%v", stack, i, n, err)
		}
		r.Barrier(p)
		got := make([]byte, len(mine))
		if n, err := read(p, 0, got); n != len(mine) || err != nil {
			t.Errorf("%s: rank %d read: n=%d err=%v", stack, i, n, err)
		}
		if !bytes.Equal(got, mine) {
			t.Errorf("%s: rank %d read back other bytes than it wrote", stack, i)
		}
		r.Barrier(p)
		if i == 0 {
			f.SetView(0, nil)
			extent = make([]byte, s.size())
			if n, err := f.ReadAt(p, s.disp, extent); n != len(extent) || err != nil {
				t.Errorf("%s: extent read: n=%d err=%v", stack, n, err)
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", stack, err)
	}
	return extent
}

// TestCollectiveShapes holds two-phase to the collShape.want oracle, a
// flat model of the ranks' writes, over seeded shapes the golden tables
// never reach: block sizes from 1 B to 8 KB, 2–6 ranks, stripe widths 1–4
// (stripe-aligned domains when the world covers the width, the equal split
// otherwise), stripe sizes unrelated to the block so pieces straddle domain
// boundaries, small collective buffers, the non-batch path, and an empty
// participant. Each shape runs collectively over striped DAFS at its own
// width and at widths 1, 2 and 4, and over the mem stack, whose leaf has no
// batch I/O; and independently over striped DAFS. So the pipelined list
// path and the assembly path (NoBatch) each meet the equal split and the
// aligned domains. The counting walks that size the exchange buffers and
// the walks that fill them must agree on every one: each rank reads back
// what it wrote, and the file is byte for byte the oracle's.
func TestCollectiveShapes(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(30))
	var aligned, equal, straddled, empty int
	for iter := 0; iter < iters; iter++ {
		s := randCollShape(rng)
		if s.width > 1 && s.ranks >= s.width {
			aligned++
		} else {
			equal++
		}
		if s.straddles() {
			straddled++
		}
		if s.empty >= 0 {
			empty++
		}
		want := s.want(iter)
		type stackRun struct {
			stack      string
			collective bool
			width      int
		}
		runs := []stackRun{{"dafs", true, s.width}, {"dafs", false, s.width}, {"mem", true, s.width}}
		for _, w := range []int{1, 2, 4} {
			if w != s.width {
				runs = append(runs, stackRun{"dafs", true, w})
			}
		}
		for _, run := range runs {
			sw := s
			sw.width = run.width
			if got := sw.run(t, run.stack, run.collective, iter); !bytes.Equal(got, want) {
				t.Fatalf("iter %d (%v): %s collective=%v at width %d left other bytes than the ranks wrote", iter, s, run.stack, run.collective, run.width)
			}
		}
		if t.Failed() {
			t.Fatalf("iter %d: %v", iter, s)
		}
	}
	if aligned == 0 || equal == 0 || straddled == 0 || empty == 0 {
		t.Errorf("shapes missed a case: %d aligned, %d equal split, %d straddling, %d with an empty rank", aligned, equal, straddled, empty)
	}
	t.Logf("%d shapes: %d aligned, %d equal split, %d straddling, %d with an empty rank", iters, aligned, equal, straddled, empty)
}
