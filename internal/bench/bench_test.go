package bench

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// parse pulls a numeric cell out of a table.

func cellOf(t *testing.T, rows [][]string, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(rows[row][col], "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		if ByID(e.ID) == nil {
			t.Fatalf("ByID(%s) = nil", e.ID)
		}
	}
	if len(All) != 20 {
		t.Fatalf("expected 20 experiments, have %d", len(All))
	}
	if ByID("T99") != nil {
		t.Fatal("ByID invented an experiment")
	}
}

// TestT1Shape validates the transport calibration: single-digit-to-teens
// microsecond small-message latency and near-link-rate peak bandwidth.
func TestT1Shape(t *testing.T) {
	tbl := T1RawVIA()
	if len(tbl.Rows) < 5 {
		t.Fatalf("too few rows: %d", len(tbl.Rows))
	}
	smallLat := cellOf(t, tbl.Rows, 0, 1)
	if smallLat < 4 || smallLat > 15 {
		t.Errorf("8B one-way latency %.1fus out of cLAN range", smallLat)
	}
	last := len(tbl.Rows) - 1
	peak := cellOf(t, tbl.Rows, last, 2)
	if peak < 80 || peak > 160 {
		t.Errorf("peak send bandwidth %.1f MB/s out of range", peak)
	}
	// Bandwidth must be monotone nondecreasing with size (within 1%).
	for i := 1; i <= last; i++ {
		if cellOf(t, tbl.Rows, i, 2) < cellOf(t, tbl.Rows, i-1, 2)*0.99 {
			t.Errorf("send bandwidth not monotone at row %d", i)
		}
	}
}

// TestT4Shape validates the paper's central claim in the harness itself:
// DAFS client CPU per byte is at least 10x below NFS.
func TestT4Shape(t *testing.T) {
	tbl := T4CPUOverhead()
	dafsRead := cellOf(t, tbl.Rows, 0, 2) // cpu ms/MB
	nfsRead := cellOf(t, tbl.Rows, 2, 2)
	if nfsRead < 10*dafsRead {
		t.Errorf("CPU gap too small: dafs=%.2f nfs=%.2f ms/MB", dafsRead, nfsRead)
	}
	dafsBW := cellOf(t, tbl.Rows, 0, 1)
	nfsBW := cellOf(t, tbl.Rows, 2, 1)
	if dafsBW <= nfsBW {
		t.Errorf("DAFS read bandwidth %.1f not above NFS %.1f", dafsBW, nfsBW)
	}
}

// TestT8Shape validates that the registration cache always helps and helps
// small transfers most.
func TestT8Shape(t *testing.T) {
	tbl := T8RegCache()
	var prev float64 = 1e9
	for i := range tbl.Rows {
		sp := cellOf(t, tbl.Rows, i, 3)
		if sp < 1.0 {
			t.Errorf("row %d: cache slowdown %.2fx", i, sp)
		}
		if sp > prev*1.10 {
			t.Errorf("row %d: speedup grew with size (%.2f after %.2f)", i, sp, prev)
		}
		prev = sp
	}
}

// TestDeterministicTables re-runs a fast experiment and requires identical
// output.
func TestDeterministicTables(t *testing.T) {
	a := T9Overlap().String()
	b := T9Overlap().String()
	if a != b {
		t.Fatalf("experiment not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestT15Deterministic holds the striped driver's parallel stripe dispatch
// to the same discipline: two runs of T15 must print byte-identical
// tables. -short runs a reduced grid that still exercises multi-client,
// multi-server dispatch.
func TestT15Deterministic(t *testing.T) {
	run := func() string { return T15StripedScaling().String() }
	if testing.Short() {
		run = func() string {
			return grid(&stats.Table{ID: "T15"}, dafsStack, stripePer, []int{2}, []int{2}).String()
		}
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("T15 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestT18WideShape holds the wide grid (T15 at 10k-proc populations) to
// the same discipline at a cheap point: two runs of a 16x16 cell must
// agree exactly, and (full mode) 64 servers must clearly beat 16 at 64
// clients — the whole reason to go wide.
func TestT18WideShape(t *testing.T) {
	t18Point := func(n, s int) float64 {
		return measure(stripePoint("T18", dafsStack, n, s, t18Per, false)).MBps
	}
	a := t18Point(16, 16)
	if b := t18Point(16, 16); a != b {
		t.Fatalf("T18 point not deterministic: %v vs %v", a, b)
	}
	if testing.Short() {
		t.Skip("wide T18 points in -short mode")
	}
	narrow := t18Point(64, 16)
	wide := t18Point(64, 64)
	if wide < 1.5*narrow {
		t.Errorf("wide striping does not scale: 16 servers %.1f MB/s, 64 servers %.1f MB/s (< 1.5x)", narrow, wide)
	}
}

// TestT15Shape validates the refactor's point: at 8 clients, 4 servers
// must deliver at least 3x the single-server read ceiling, and adding
// servers must never hurt.
func TestT15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full T15 grid in -short mode")
	}
	tbl := grid(&stats.Table{ID: "T15"}, dafsStack, stripePer, []int{8}, []int{1, 4})
	one := cellOf(t, tbl.Rows, 0, 1)
	four := cellOf(t, tbl.Rows, 0, 2)
	if four < 3*one {
		t.Errorf("striping does not scale: 1 server %.1f MB/s, 4 servers %.1f MB/s (< 3x)", one, four)
	}
}

// TestHostAllocBudget is the guard above the layers against an accidental
// quadratic and against per-call garbage. One client appends 8 MB to a new
// file in 4 KB calls and reads it back, over DAFS and over NFS.
//
//   - Bytes: everything a run allocates — cluster, session, file growth
//     in storage, wire cells, message bodies — must fit in 8x the 16 MB
//     moved. (Regrowing the object to its exact length on every append,
//     as storage once did, costs 8 GB here.)
//   - Objects: the heap allocations of one steady-state call, write and
//     read averaged with each direction's first call excluded, must stay
//     within 2% of what the stack cost when it was recorded (18.29 over
//     DAFS, 19.50 over NFS, go1.24 on linux/amd64; 20.29 and 20.50 before
//     the single-server drivers became the striped core, which recycles
//     its ops, and before a flat view stopped building a segment list).
//     Every layer from MPI-IO down to the wire runs inside that count, so
//     a layer that starts allocating per call shows here before it shows
//     in the benchmark.
func TestHostAllocBudget(t *testing.T) {
	const size, total = 4 << 10, 8 << 20
	const calls = total / size
	for _, tc := range []struct {
		name    string
		stack   stack
		mallocs float64 // per steady-state call
	}{
		{"dafs", dafsStack, 18.29 * 1.02},
		{"nfs", nfsStack, 19.50 * 1.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			var steady uint64 // mallocs over both directions' calls but the first
			mark := func() uint64 {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.Mallocs
			}
			runtime.ReadMemStats(&m0)
			pt := point{id: "alloc", clients: 1, stack: tc.stack, name: "f", write: true}
			c := newCluster(pt, Observation{})
			c.K.Spawn("app", func(p *sim.Proc) {
				f, _ := open(p, c, pt, 0)
				buf := make([]byte, size)
				var from uint64
				for off := int64(0); off < total; off += size {
					for i := range buf {
						buf[i] = byte(off>>12) ^ byte(i)
					}
					if n, err := f.WriteAt(p, off, buf); n != size || err != nil {
						t.Errorf("write at %d: n=%d err=%v", off, n, err)
						return
					}
					if off == 0 {
						from = mark()
					}
				}
				steady += mark() - from
				for off := int64(0); off < total; off += size {
					if n, err := f.ReadAt(p, off, buf); n != size || err != nil {
						t.Errorf("read at %d: n=%d err=%v", off, n, err)
						return
					}
					if off == 0 {
						from = mark()
					}
					for i := range buf {
						if buf[i] != byte(off>>12)^byte(i) {
							t.Errorf("read-back mismatch at %d", off+int64(i))
							return
						}
					}
				}
				steady += mark() - from
				f.Close(p)
			})
			end(c, c.Run())
			runtime.ReadMemStats(&m1)
			perCall := float64(steady) / float64(2*(calls-1))
			if perCall > tc.mallocs {
				t.Errorf("a steady-state 4 KB call makes %.2f heap allocations, budget %.2f", perCall, tc.mallocs)
			} else {
				t.Logf("a steady-state 4 KB call makes %.2f heap allocations (budget %.2f)", perCall, tc.mallocs)
			}
			moved := uint64(2 * total)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 8*moved {
				t.Errorf("moving %d MB allocated %d MB on the host, budget %d MB", moved>>20, got>>20, 8*moved>>20)
			} else {
				t.Logf("moving %d MB allocated %.1f MB on the host", moved>>20, float64(got)/(1<<20))
			}
		})
	}
}

// TestShortCallFails pins the runner's checked I/O: a call that moves less
// than its buffer is an error, and the error names the experiment, the
// client and the offset.
func TestShortCallFails(t *testing.T) {
	pt := point{id: "T0", clients: 1, stack: dafsStack, name: "f", write: true} // an empty file
	c := newCluster(pt, Observation{})
	c.K.Spawn("app", func(p *sim.Proc) {
		f, _ := open(p, c, pt, 0)
		_, err := pt.call(p, f, 3, false)(4096, make([]byte, 512))
		if want := "T0: client3 read at 4096: moved 0 of 512 bytes"; err == nil || err.Error() != want {
			t.Errorf("read past EOF: %v, want %q", err, want)
		}
		f.Close(p)
	})
	end(c, c.Run())
}
