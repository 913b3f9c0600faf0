package bench

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// experiment is ByID for an experiment the test knows.
func experiment(id string) *Experiment {
	e, err := ByID(id)
	if err != nil {
		panic(err)
	}
	return e
}

// cellOf pulls a numeric cell out of a table.
func cellOf(t *testing.T, rows [][]string, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(rows[row][col], "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, rows[row][col], err)
	}
	return v
}

// TestRegistryComplete: every experiment is well-formed data. It has a
// title, a render and points; no point carries an ID of its own, since the
// runner stamps each with its experiment's (TestObservedMatchesPlain reads
// the stamp back); its observed point is one of them; and T18 lists its
// grid's 12 points.
func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Render == nil || len(e.Points) == 0 {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		if got, err := ByID(e.ID); err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s) = %v, %v", e.ID, got, err)
		}
		for i, pt := range e.Points {
			if pt.id != "" {
				t.Errorf("%s point %d carries the ID %q", e.ID, i, pt.id)
			}
		}
		if e.Observe < 0 || e.Observe >= len(e.Points) {
			t.Errorf("%s observes point %d of %d", e.ID, e.Observe, len(e.Points))
		}
		if _, err := e.RunPoint(len(e.Points), Observation{}); err == nil {
			t.Errorf("%s ran point %d of %d", e.ID, len(e.Points), len(e.Points))
		}
	}
	if n := len(experiment("T18").Points); n != 12 {
		t.Errorf("T18 lists %d points, want its 4 x 3 grid", n)
	}
	if len(All) != 20 {
		t.Fatalf("expected 20 experiments, have %d", len(All))
	}
	if _, err := ByID("T99"); err == nil {
		t.Fatal("ByID invented an experiment")
	}
}

// TestT1Shape validates the transport calibration: single-digit-to-teens
// microsecond small-message latency and near-link-rate peak bandwidth.
func TestT1Shape(t *testing.T) {
	tbl := experiment("T1").Run()
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
	tbl := experiment("T4").Run()
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
	tbl := experiment("T8").Run()
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
	a := experiment("T9").Run().String()
	b := experiment("T9").Run().String()
	if a != b {
		t.Fatalf("experiment not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestT15Deterministic holds the striped driver's parallel stripe dispatch
// to the same discipline: two runs of T15 must print byte-identical
// tables. -short runs a reduced grid that still exercises multi-client,
// multi-server dispatch.
func TestT15Deterministic(t *testing.T) {
	run := func() string { return experiment("T15").Run().String() }
	if testing.Short() {
		run = func() string {
			return grid(Experiment{ID: "T15"}, stats.Table{}, dafsStack, stripePer, []int{2}, []int{2}).Run().String()
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
		return run(stripePoint(dafsStack, 16, 16, t18Per, false), Observation{}).MBps
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
	tbl := grid(Experiment{ID: "T15"}, stats.Table{}, dafsStack, stripePer, []int{8}, []int{1, 4}).Run()
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
// The contiguous cases record 0.01 over DAFS in 4 KB calls, 0.115 in 64 KB
// direct calls and 0.01 over NFS, and 0.5x the bytes moved: the 8 MB
// file's eight pages, each allocated once. A 4 KB DAFS call allocates
// nothing: the 20-25 allocations in 4,094 calls are map upkeep, rounded
// up. Nor does a 4 KB NFS call, whose figure is the top of its runs with
// and without -race (8 to 28 allocations in 4,094 calls), rounded up: the
// mount recycles its calls, IOs and codecs, and each nfsd encodes its
// replies in place with a codec pair of its own. Neither does a direct
// call, whose figure is the top of its runs with and without -race (7 to
// 29 allocations in 254 calls: 7 to 8 after the 4 KB case without -race,
// 14 to 16 with it, 20 run alone without -race and 28 to 29 with it; the
// server's RDMA registration reuses one record per worker), rounded up;
// it was budgeted at 0.12 until then. A direct call made 1.03 while the server allocated a
// Region per RDMA, and 18.29 (23.31 direct) while each call allocated its
// Call, future, descriptors, codecs, contexts and reply body, and 20.29
// before the single-server drivers became the striped core, which
// recycles its ops. Both transports moved 1.0x the bytes while a file was
// one slice that doubled and copied itself as it grew. NFS made 8.50 and
// 0.6x while each RPC allocated its Call, future, IO, codecs and the
// server's reply closure, and 19.50 and 3.4x the bytes moved while the
// kernel stack allocated a chunk and a boxed packet per MTU packet and a
// reassembly buffer per datagram.
// The strided case records 97.6, the top of its -race figures (96.6 to
// 97.6; 92.3 to 92.6 without -race, whose extra allocations sit in mpi),
// 0.8x the bytes moved, and 5,280 host bytes per call, the top of its
// figures with and without -race (4,742 to 5,275) rounded up, + 2%: a
// noncontiguous call works in a pooled working set of its driver, and a
// list operation keeps its plans and chunk table for the next. Its budgets
// were 105.3 and 5,800 until then. It made 156.0 and 1.8x,
// and 1,466,934 host bytes per call (1,475,803 under -race), while every
// call allocated its segment list, exchange buffers, replies and server
// plans afresh, 171.3 and 2.2x while files doubled as they grew, 181.0 and 3.2x while two-phase copied the whole exchange
// into one assembled buffer per aggregator and the gather planner grew
// its lists by doubling, 377.31 before DAFS calls were recycled, and
// 6,661.47 and 7.7x while the gather planner mapped every segment into a
// fresh fragment list and two-phase grew its tuple, assembly and reply
// buffers by append and allocated one reply piece per request.
//
// The dial case counts allocations per session dialed, both ends, in a
// storm of 16 clients by 16 servers. It records 6.97, the top of its
// figures with and without -race (6.91 to 6.97): the Client and the
// dispatch binding its completion queue runs, the server's session
// record, and what grows with the sessions — each NIC's region map and VI
// list, each server's session list — and the procs the CONNECT exchange
// wakes. A session's VI, completion queue and its first ring, credit
// resource, pool channels, pending table and first call with its future
// and reply room are embedded in the records. It made 23.2 while each of
// those was an allocation of its own, the queue's and the credit
// resource's names were built per session and the pending calls sat in a
// map, and 56 to 58 while each end also allocated its slots, slot tables,
// ring records and pool array apart from its record, grew its receive
// queue 1, 2, 4, 8, and parked a dispatch daemon on a goroutine of its
// own. It moves no file data, so its byte budget is per session: 7,950
// host bytes, the top of its figures with and without -race (7,894 to
// 7,947) rounded up, + 2%. The Client record is 4,064 bytes and the
// session 3,088; the rest is what grows with the sessions and the
// provider pool's first slabs. It allocated 11,707 while each slot
// carried a codec of its own and a message took a whole slot and a whole
// cell payload.
//
// The open case counts allocations per session of an open of an existing
// file over a 16 × 16 striped pool: each of 16 clients opens it twice, and
// the count covers the second round, after the first has warmed the
// kernel's workers. It has no byte budget. It records 0.50, its figure
// with and without -race (128 allocations in 256 sessions; it was
// budgeted at 0.63 until then): each open's
// File, handle, handle table, work and flight records shared out over its
// 16 sessions. The Lookup reuses the session's first call, whose room
// holds the reply, the server looks the name up from the request bytes,
// and the handle's per-server rows are cut from one slice. It made 1.56
// to 1.58 while the server copied each name into a string and each row
// was an allocation of its own.
//
// The meta case counts allocations per session of a metadata fan-out on
// an open file over a 16 × 16 striped pool: GetSize, SetSize and Sync,
// the Getattr, Setattr and Fsync on every server, with the fewest of three
// identical warm rounds counted (each reads 176 at rest). It has no byte
// budget. It records 0.23, its figure with and without -race (176
// allocations in 768 calls, 0.2292), rounded up:
// each operation's work and flight tables shared out over its 16
// sessions. Each request's in-flight op is the client's own recycled
// call, so an adapter that boxed two words per request would add one
// allocation per call.
func TestHostAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		run       func(t *testing.T) allocRun
		mallocs   float64 // per steady-state call
		bytes     uint64  // host bytes per byte moved
		callBytes float64 // host bytes per steady-state call (0: unbudgeted)
	}{
		{"dafs", func(t *testing.T) allocRun { return contigAllocRun(t, dafsStack, 4<<10) }, 0.01 * 1.02, 1, 0},
		{"dafs-direct", func(t *testing.T) allocRun { return contigAllocRun(t, dafsStack, 64<<10) }, 0.115 * 1.02, 1, 0},
		{"nfs", func(t *testing.T) allocRun { return contigAllocRun(t, nfsStack, 4<<10) }, 0.01 * 1.02, 1, 0},
		{"strided", stridedAllocRun, 97.6 * 1.02, 1, 5280 * 1.02},
		{"dial", dialAllocRun, 6.97 * 1.02, 0, 7950 * 1.02},
		{"open", openAllocRun, 0.50 * 1.02, 0, 0},
		{"meta", metaAllocRun, 0.23 * 1.02, 0, 0},
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
			if tc.callBytes > 0 {
				if perCall := float64(r.steadyBytes) / float64(r.calls); perCall > tc.callBytes {
					t.Errorf("a steady-state call allocates %.0f host bytes (%d in %d calls), budget %.0f", perCall, r.steadyBytes, r.calls, tc.callBytes)
				} else {
					t.Logf("a steady-state call allocates %.0f host bytes (%d in %d calls; budget %.0f)", perCall, r.steadyBytes, r.calls, tc.callBytes)
				}
			}
			if r.moved == 0 {
				return // a dial or an open moves no file data
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
// steady-state calls, how many calls that was, and the bytes it moved;
// a run whose calls have a byte budget also counts the heap bytes they
// allocated.
type allocRun struct {
	calls         int
	steady, moved uint64
	steadyBytes   uint64
}

// mallocs reads the process's heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// heapBytes reads the bytes the process has allocated on the heap.
func heapBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
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
	var from, steady, fromBytes, steadyBytes uint64
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		f, _ := open(p, c, pt, i)
		rank := c.World.Rank(i)
		buf, got := make([]byte, size), make([]byte, size)
		for round := 0; round < rounds; round++ {
			if round == 1 {
				rank.Barrier(p)
				if i == 0 {
					from, fromBytes = mallocs(), heapBytes()
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
			steady, steadyBytes = mallocs()-from, heapBytes()-fromBytes
		}
		f.Close(p)
	})
	end(c, err)
	return allocRun{calls: ranks * (rounds - 1) * 4, steady: steady, steadyBytes: steadyBytes, moved: ranks * rounds * 4 * size}
}

// dialAllocRun: 16 clients each dial a session to every one of 16
// servers. A call is one session dialed; the count runs from before the
// first dial to the end of the run, so it holds both ends of every session.
func dialAllocRun(t *testing.T) allocRun {
	const clients, servers = 16, 16
	c := newCluster(point{id: "alloc", clients: clients, servers: servers, stack: dafsStack, name: "f", write: true}, Observation{})
	var from, fromBytes uint64
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		if i == 0 {
			from, fromBytes = mallocs(), heapBytes()
		}
		if _, err := c.DialDAFSAll(p, i, nil); err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	})
	steady, steadyBytes := mallocs()-from, heapBytes()-fromBytes
	end(c, err)
	return allocRun{calls: clients * servers, steady: steady, steadyBytes: steadyBytes}
}

// openAllocRun: 16 clients each dial a session to every one of 16 servers
// and stripe a driver over them, then each opens the existing file, twice.
// A call is one session's share of an open; the count runs over the second
// round of 16 opens alone, so it holds both ends of every session's Lookup
// and the handles, but not the worker goroutines the first round starts.
func openAllocRun(t *testing.T) allocRun {
	const clients, servers = 16, 16
	pt := point{id: "alloc", clients: clients, servers: servers, stack: dafsStack, name: "f", write: true}
	c := newCluster(pt, Observation{}) // write: every object exists, empty
	var steady uint64
	c.K.Spawn("app", func(p *sim.Proc) {
		drvs := make([]*mpiio.StripedDAFSDriver, clients)
		for i := range drvs {
			pool, err := c.DialDAFSAll(p, i, nil)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			drvs[i] = mpiio.NewStripedDAFSDriver(pool, pt.placement(c))
		}
		files := make([]*mpiio.File, 0, 2*clients)
		var from uint64
		for round := 0; round < 2; round++ {
			if round == 1 {
				from = mallocs()
			}
			for i, d := range drvs {
				f, err := mpiio.Open(p, nil, d, pt.name, mpiio.ModeRdWr, nil)
				if err != nil {
					t.Errorf("client %d open: %v", i, err)
					return
				}
				files = append(files, f)
			}
		}
		steady = mallocs() - from
		for _, f := range files {
			f.Close(p)
		}
	})
	end(c, c.Run())
	return allocRun{calls: clients * servers, steady: steady}
}

// metaAllocRun: 16 clients each dial a session to every one of 16 servers,
// stripe a driver over them and open the existing file; then each file,
// four times over, reads its size, sets it and syncs — the Getattr,
// Setattr and Fsync fan-outs, each one request per session. A call is one
// session's share of one fan-out. The first round warms the kernel's
// workers, as in the open case; rounds 1 to 3 do identical work and are
// counted apart, and the fewest is the figure, since mallocs counts every
// allocation in the process and a stray one from the runtime or a
// parallel test can only add to a round.
func metaAllocRun(t *testing.T) allocRun {
	const clients, servers, size = 16, 16, 64 << 10
	pt := point{id: "alloc", clients: clients, servers: servers, stack: dafsStack, name: "f", write: true}
	c := newCluster(pt, Observation{}) // write: every object exists, empty
	var steady uint64
	c.K.Spawn("app", func(p *sim.Proc) {
		files := make([]*mpiio.File, clients)
		for i := range files {
			pool, err := c.DialDAFSAll(p, i, nil)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			d := mpiio.NewStripedDAFSDriver(pool, pt.placement(c))
			if files[i], err = mpiio.Open(p, nil, d, pt.name, mpiio.ModeRdWr, nil); err != nil {
				t.Errorf("client %d open: %v", i, err)
				return
			}
		}
		for round := 0; round < 4; round++ {
			from := mallocs()
			for i, f := range files {
				if n, err := f.GetSize(p); err != nil || n != int64(min(round+i, 1)*size) {
					t.Errorf("client %d round %d size: %d, %v", i, round, n, err)
					return
				}
				if err := f.SetSize(p, size); err != nil {
					t.Errorf("client %d round %d set size: %v", i, round, err)
					return
				}
				if err := f.Sync(p); err != nil {
					t.Errorf("client %d round %d sync: %v", i, round, err)
					return
				}
			}
			if n := mallocs() - from; round == 1 || round > 1 && n < steady {
				steady = n
			}
		}
		for _, f := range files {
			f.Close(p)
		}
	})
	end(c, c.Run())
	return allocRun{calls: 3 * clients * servers, steady: steady}
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
	t2, t3, t4, t11 := experiment("T2").Run(), experiment("T3").Run(), experiment("T4").Run(), experiment("T11").Run()
	t5, t15 := experiment("T5").Run(), experiment("T15").Run()
	for _, id := range []struct {
		name string
		a, b string
	}{
		{"T10[4KB read, dafs] = T7[measured end-to-end, 4KB inline]",
			cell(experiment("T10").Run(), "4KB read", 1), cell(experiment("T7").Run(), "measured end-to-end", 1)},
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
