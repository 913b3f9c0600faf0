package bench

import (
	"bytes"
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
// agree exactly. TestResultsGolden pins the full grid's cells, and with
// them the 64-beats-16 shape.
func TestT18WideShape(t *testing.T) {
	t18Point := func() float64 {
		return measure(stripePoint("T18", dafsStack, 16, 16, t18Per, false)).MBps
	}
	if a, b := t18Point(), t18Point(); a != b {
		t.Fatalf("T18 point not deterministic: %v vs %v", a, b)
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
// quadratic and against per-call garbage, on the contiguous path and on the
// strided one.
//
//   - Bytes: everything a run allocates — cluster, sessions, file pages
//     in storage, wire cells, message bodies, exchange and staging buffers
//     — must fit in a stated whole multiple of the bytes moved, the
//     recorded ratio rounded up. (Regrowing the
//     object to its exact length on every append, as storage once did,
//     costs 8 GB in the contiguous runs.)
//   - Objects: the heap allocations of one steady-state call must stay
//     within 2% of what the stack cost when it was recorded (go1.24 on
//     linux/amd64). Every layer from MPI-IO down to the wire runs inside
//     that count, so a layer that starts allocating per call, or per
//     segment, shows here before it shows in the benchmark.
//
// The contiguous cases record 0.01 over DAFS in 4 KB calls, 0.12 in 64 KB
// direct calls and 8.50 over NFS, and 0.5x the bytes moved for DAFS and
// 0.6x for NFS: the 8 MB file's eight pages, each allocated once. A 4 KB
// DAFS call allocates nothing: the 20-25 allocations in 4,094 calls are
// map upkeep, rounded up. Neither does a direct call, whose figure is the
// top of its -race runs (7 to 28 allocations in 254 calls, run alone or
// after the 4 KB case; the server's RDMA registration reuses one record
// per worker). A direct call made 1.03 while the server allocated a
// Region per RDMA, and 18.29 (23.31 direct) while each call allocated its
// Call, future, descriptors, codecs, contexts and reply body, and 20.29
// before the single-server drivers became the striped core, which
// recycles its ops. Both transports moved 1.0x the bytes while a file was
// one slice that doubled and copied itself as it grew. NFS made 19.50 and
// 3.4x the bytes moved while the kernel stack allocated a chunk and a
// boxed packet per MTU packet and a reassembly buffer per datagram.
// The strided case records 156.0, the top of its -race figures (154.2 to
// 155.9; 147.6 without -race, whose extra allocations sit in mpi), and
// 1.8x the bytes moved; it made 171.3 and 2.2x while files doubled as
// they grew, 181.0 and 3.2x while two-phase copied the whole exchange
// into one assembled buffer per aggregator and the gather planner grew
// its lists by doubling, 377.31 before DAFS calls were recycled, and
// 6,661.47 and 7.7x while the gather planner mapped every segment into a
// fresh fragment list and two-phase grew its tuple, assembly and reply
// buffers by append and allocated one reply piece per request.
//
// The dial case counts allocations per session dialed, both ends, in a
// storm of 16 clients by 16 servers, and moves no file data, so it has no
// byte budget. It records 23.2, the top of its figures with and without
// -race (22.9 to 23.2): the client and server records, two VIs, the
// completion queue and its channels, the credit resource, the pools'
// channels and the CONNECT call. It made 56 to 58 while each end
// allocated its slots, slot tables, ring records and pool array apart
// from its record, grew its receive queue 1, 2, 4, 8, and parked a
// dispatch daemon on a goroutine of its own.
func TestHostAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T) allocRun
		mallocs float64 // per steady-state call
		bytes   uint64  // host bytes per byte moved
	}{
		{"dafs", func(t *testing.T) allocRun { return contigAllocRun(t, dafsStack, 4<<10) }, 0.01 * 1.02, 1},
		{"dafs-direct", func(t *testing.T) allocRun { return contigAllocRun(t, dafsStack, 64<<10) }, 0.12 * 1.02, 1},
		{"nfs", func(t *testing.T) allocRun { return contigAllocRun(t, nfsStack, 4<<10) }, 8.50 * 1.02, 1},
		{"strided", stridedAllocRun, 156.0 * 1.02, 2},
		{"dial", dialAllocRun, 23.2 * 1.02, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r := tc.run(t)
			runtime.ReadMemStats(&m1)
			perCall := float64(r.steady) / float64(r.calls)
			if perCall > tc.mallocs {
				t.Errorf("a steady-state call makes %.4f heap allocations (%d in %d calls), budget %.4f", perCall, r.steady, r.calls, tc.mallocs)
			} else {
				t.Logf("a steady-state call makes %.4f heap allocations (%d in %d calls; budget %.4f)", perCall, r.steady, r.calls, tc.mallocs)
			}
			if r.moved == 0 {
				return // a dial moves no file data: only its allocations are budgeted
			}
			if got := m1.TotalAlloc - m0.TotalAlloc; got > tc.bytes*r.moved {
				t.Errorf("moving %d MB allocated %d MB on the host, budget %d MB", r.moved>>20, got>>20, tc.bytes*r.moved>>20)
			} else {
				t.Logf("moving %d MB allocated %.1f MB on the host (%.1fx)", r.moved>>20, float64(got)/(1<<20), float64(got)/float64(r.moved))
			}
		})
	}
}

// allocRun is what one budget run counted: the heap allocations of its
// steady-state calls, how many calls that was, and the bytes it moved.
type allocRun struct {
	calls         int
	steady, moved uint64
}

// mallocs reads the process's heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// contigAllocRun: one client appends 8 MB to a new file in size-byte calls
// and reads it back. Each direction's first call is excluded from the
// steady state.
func contigAllocRun(t *testing.T, st stack, size int) allocRun {
	const total = 8 << 20
	calls := total / size
	var steady uint64 // mallocs over both directions' calls but the first
	pt := point{id: "alloc", clients: 1, stack: st, name: "f", write: true}
	c := newCluster(pt, Observation{})
	c.K.Spawn("app", func(p *sim.Proc) {
		f, _ := open(p, c, pt, 0)
		buf := make([]byte, size)
		var from uint64
		for off := int64(0); off < total; off += int64(size) {
			for i := range buf {
				buf[i] = byte(off/int64(size)) ^ byte(i)
			}
			if n, err := f.WriteAt(p, off, buf); n != size || err != nil {
				t.Errorf("write at %d: n=%d err=%v", off, n, err)
				return
			}
			if off == 0 {
				from = mallocs()
			}
		}
		steady += mallocs() - from
		for off := int64(0); off < total; off += int64(size) {
			if n, err := f.ReadAt(p, off, buf); n != size || err != nil {
				t.Errorf("read at %d: n=%d err=%v", off, n, err)
				return
			}
			if off == 0 {
				from = mallocs()
			}
			for i := range buf {
				if buf[i] != byte(off/int64(size))^byte(i) {
					t.Errorf("read-back mismatch at %d", off+int64(i))
					return
				}
			}
		}
		steady += mallocs() - from
		f.Close(p)
	})
	end(c, c.Run())
	return allocRun{calls: 2 * (calls - 1), steady: steady, moved: 2 * total}
}

// stridedAllocRun: 4 ranks over 4 servers, each moving 1 MB per call
// through a 128 B interleave view (8,192 segments a call). A round is a
// two-phase WriteAtAll and ReadAtAll, then a list-I/O WriteAt and ReadAt,
// and every read is checked against what its rank wrote. The first round
// warms the sessions, registrations and staging pool and is excluded; a
// call is one rank's, so the figure is the round's count over 4 calls and
// 4 ranks.
func stridedAllocRun(t *testing.T) allocRun {
	const ranks, size, rounds = 4, 1 << 20, 3
	pt := point{id: "alloc", clients: ranks, servers: 4, stack: dafsStack, name: "f", per: size, view: &view{block: 128}}
	c := newCluster(pt, Observation{})
	var from, steady uint64
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		f, _ := open(p, c, pt, i)
		rank := c.World.Rank(i)
		buf, got := make([]byte, size), make([]byte, size)
		for round := 0; round < rounds; round++ {
			if round == 1 {
				rank.Barrier(p)
				if i == 0 {
					from = mallocs()
				}
			}
			for k, call := range [][2]func(*sim.Proc, int64, []byte) (int, error){
				{f.WriteAtAll, f.ReadAtAll},
				{f.WriteAt, f.ReadAt},
			} {
				for j := range buf {
					buf[j] = byte(i*31+round*7+k) ^ byte(j) ^ byte(j>>8)
				}
				if n, err := call[0](p, 0, buf); n != size || err != nil {
					t.Errorf("rank %d round %d write %d: n=%d err=%v", i, round, k, n, err)
					return
				}
				clear(got)
				if n, err := call[1](p, 0, got); n != size || err != nil {
					t.Errorf("rank %d round %d read %d: n=%d err=%v", i, round, k, n, err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("rank %d round %d read %d: read-back mismatch", i, round, k)
					return
				}
			}
		}
		rank.Barrier(p)
		if i == 0 {
			steady = mallocs() - from
		}
		f.Close(p)
	})
	end(c, err)
	return allocRun{calls: ranks * (rounds - 1) * 4, steady: steady, moved: ranks * rounds * 4 * size}
}

// dialAllocRun: 16 clients each dial a session to every one of 16
// servers. A call is one session dialed; the count runs from before the
// first dial to the end of the run, so it holds both ends of every session.
func dialAllocRun(t *testing.T) allocRun {
	const clients, servers = 16, 16
	c := newCluster(point{id: "alloc", clients: clients, servers: servers, stack: dafsStack, name: "f", write: true}, Observation{})
	var from uint64
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		if i == 0 {
			from = mallocs()
		}
		if _, err := c.DialDAFSAll(p, i, nil); err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	})
	steady := mallocs() - from
	end(c, err)
	return allocRun{calls: clients * servers, steady: steady}
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

// TestCrossTableIdentities: two tables that time the same operation print
// the same number. T10's 4KB read and T7's measured 4KB inline read are one
// warm 4KB DAFS read of a file at least 4KB long (T10 once timed a 1,008-byte
// read here, because its truncate probe had just shrunk the file). The
// rest hold because every table below is a point measured by run: T4's
// reads are T5's one-client points, T3's 256KB direct read is T15's one
// client on one server, and T2's 1MB and 32KB reads are T11's baseline and
// T3's forced-direct 32KB read. T12's 1.25 Gb/s row is not T2's 1MB read:
// T12 raises NIC DMA to twice the link on that row too (101.9 vs 96.1).
func TestCrossTableIdentities(t *testing.T) {
	cell := func(tbl *stats.Table, row string, col int) string {
		for _, r := range tbl.Rows {
			if r[0] == row {
				return r[col]
			}
		}
		t.Fatalf("%s has no row %q", tbl.ID, row)
		return ""
	}
	t2, t3, t4, t11 := T2RequestSize(), T3InlineDirect(), T4CPUOverhead(), T11Sensitivity()
	t5, t15 := T5Scaling(), T15StripedScaling()
	for _, id := range []struct {
		name string
		a, b string
	}{
		{"T10[4KB read, dafs] = T7[measured end-to-end, 4KB inline]",
			cell(T10OpLatency(), "4KB read", 1), cell(T7Breakdown(), "measured end-to-end", 1)},
		{"T4[dafs read] = T5[1 client, dafs]", cell(t4, "dafs read", 1), cell(t5, "1", 1)},
		{"T4[nfs read] = T5[1 client, nfs]", cell(t4, "nfs read", 1), cell(t5, "1", 3)},
		{"T3[256KB direct] = T15[1 client, 1-srv rd]", cell(t3, "256KB", 2), cell(t15, "1", 1)},
		{"T2[1MB dafs-rd] = T11[baseline, dafs]", cell(t2, "1MB", 1), cell(t11, "baseline", 1)},
		{"T2[1MB nfs-rd] = T11[baseline, nfs]", cell(t2, "1MB", 3), cell(t11, "baseline", 2)},
		{"T2[32KB dafs-rd] = T3[32KB direct]", cell(t2, "32KB", 1), cell(t3, "32KB", 2)},
	} {
		if id.a != id.b {
			t.Errorf("%s: %s != %s", id.name, id.a, id.b)
		}
	}
}
