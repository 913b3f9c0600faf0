package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/layout"
	"dafsio/internal/metrics"
	"dafsio/internal/mpi"
	"dafsio/internal/mpiio"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
	"dafsio/internal/trace"
)

// passKind selects the MPI-IO path a pass drives.
type passKind int

const (
	passIndep  passKind = iota // WriteAt/ReadAt through the flat view
	passColl                   // WriteAtAll/ReadAtAll through the strided view
	passBatch                  // WriteAt/ReadAt through the strided view (list-I/O batch)
	passPerSeg                 // the same with Hints.NoBatch: one driver op per segment
)

// pass is one file of a workload: every client writes its region in calls
// requests of req bytes, all clients barrier, and every client reads its
// region back and verifies it.
type pass struct {
	label   string // suffix of the per-pass layer metrics: 4K, 64K, 1M, 256K, coll, batch, perseg
	kind    passKind
	req     int  // bytes per call, per client
	calls   int  // calls per client and direction at full volume (the frozen op count)
	latency bool // the workload's latency class
}

// workload is one cluster and the passes its clients run on it.
type workload struct {
	name     string
	why      string
	clients  int
	servers  int
	nfs      bool     // MountNFS in place of DAFS sessions
	replicas int      // layout.Striping.Replicas
	crashAt  sim.Time // server1 crashes at this simulated instant (0: no fault)
	passes   []pass
}

// Striping and interleave shared by the striped workloads (T15/T17's).
const (
	stripeSize = 64 << 10
	interleave = 128 // bytes per block of the strided view
)

// Failover policy of failover_r2, T16's: a 20ms call deadline, then three
// redials backing off 100us..800us before the server is declared dead.
const callTimeout = 20 * sim.Millisecond

var retryPolicy = dafs.RetryPolicy{Base: 100 * sim.Microsecond, Max: 800 * sim.Microsecond, Attempts: 3}

// workloads is the fixed list; later issues cite these names and op counts.
var workloads = []*workload{
	{
		name: "seq_dafs", clients: 1, servers: 1,
		why: "paper headline (T2/T4/T10): 1x1 sequential MPI-IO over DAFS; mpiio independent path, dafs inline/direct switch, via and fabric do the work, mpi/aggregate/layout none",
		passes: []pass{
			{label: "4K", req: 4 << 10, calls: 2048, latency: true},
			{label: "64K", req: 64 << 10, calls: 128},
			{label: "1M", req: 1 << 20, calls: 8},
		},
	},
	{
		name: "seq_nfs", clients: 1, servers: 1, nfs: true,
		why: "the paper's baseline and the bypass for DAFS/VIA changes: the same program over MountNFS; kstack and nfs do the work, via/dafs none",
		passes: []pass{
			{label: "4K", req: 4 << 10, calls: 2048, latency: true},
			{label: "64K", req: 64 << 10, calls: 128},
			{label: "1M", req: 1 << 20, calls: 8},
		},
	},
	{
		name: "striped_rw", clients: 8, servers: 4,
		why:    "T15's cell: 8 clients x 4 servers, 64KB stripes, 256KB requests; layout and striped-driver fan-out, server-NIC sharing, append growth in storage beside zero-copy reads",
		passes: []pass{{label: "256K", req: 256 << 10, calls: 40, latency: true}},
	},
	{
		name: "strided_coll", clients: 4, servers: 4,
		why: "T6/T17: 4 ranks x 4 servers, 128B interleave; two-phase collective, list-I/O batch (1MB and 16KB calls) and per-segment passes; only here do mpi exchange, aggregate planning and dafs batch dominate",
		passes: []pass{
			{label: "coll", kind: passColl, req: 1 << 20, calls: 2},
			{label: "batch", kind: passBatch, req: 1 << 20, calls: 2},
			{label: "perseg", kind: passPerSeg, req: 64 << 10, calls: 1},
			// The latency class: 4 ranks x 64 calls = 256 samples, 12 beyond p95.
			{label: "batch16K", kind: passBatch, req: 16 << 10, calls: 64, latency: true},
		},
	},
	{
		name: "wide_sessions", clients: 128, servers: 32,
		why:    "T18 scaled to the box: 128 clients x 32 servers = 4096 sessions, little data each; set-up dominated (cluster.New, dafs.Dial, slot rings, registrations, timer wheel)",
		passes: []pass{{label: "256K", req: 256 << 10, calls: 2, latency: true}},
	},
	{
		name: "failover_r2", clients: 4, servers: 4, replicas: 2, crashAt: 10 * sim.Millisecond,
		why:    "T16: replicated striped driver, server1 crashes at 10ms, timeout then redial then exclusion, read-back from survivors; the only workload with faults to recover from",
		passes: []pass{{label: "256K", req: 256 << 10, calls: 64, latency: true}},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// scaledCalls is the op count of a pass at 1/scale volume (never below one).
func scaledCalls(calls, scale int) int {
	return max(1, calls/scale)
}

// strided reports whether the pass goes through the interleaved view.
func (ps pass) strided() bool { return ps.kind != passIndep }

// inputs are what the seed generates: the payload table and the
// client-to-region permutation. The program under test sees only these.
type inputs struct {
	table []byte // payload of one 16MB block, plus a tail so a request never wraps
	perm  []int  // client i owns region perm[i]
}

const (
	blockBits = 24 // the payload repeats, rotated, every 16MB block
	blockMask = 1<<blockBits - 1
	maxReq    = 1 << 20
	rotate    = 4099 // bytes each successive block is rotated by
)

// genInputs derives the payload and the permutation from the seed. The byte
// at file position x is byte(x ^ x>>8 ^ x>>16) mixed with seed bytes, so a
// fragment that lands at the wrong offset, on the wrong stripe or in another
// client's region fails verification.
func genInputs(seed int64, clients int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var key [8]byte
	rng.Read(key[:])
	in := &inputs{table: make([]byte, 1<<blockBits+maxReq), perm: rng.Perm(clients)}
	for i := range in.table {
		x := i & blockMask
		in.table[i] = byte(x^x>>8^x>>16) ^ key[(x>>12)&7]
	}
	return in
}

// payload returns the n bytes the file holds at position x. n must not
// exceed maxReq and the range must not cross a 16MB block.
func (in *inputs) payload(x int64, n int) []byte {
	lo := int(x+rotate*(x>>blockBits)) & blockMask
	return in.table[lo : lo+n]
}

// stridedPayload is the buffer a rank moves in one strided call: block k of
// the buffer sits at file position disp + (off/interleave+k)*stride.
func (in *inputs) stridedPayload(disp, off int64, n, ranks int) []byte {
	buf := make([]byte, n)
	stride := int64(ranks * interleave)
	for k := 0; k < n/interleave; k++ {
		x := disp + (off/interleave+int64(k))*stride
		copy(buf[k*interleave:], in.payload(x, interleave))
	}
	return buf
}

// repResult is what one run of one workload in one process measured.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Mismatch  int64              `json:"mismatched"`      // failed calls that were read-back mismatches
	Sim       map[string]float64 `json:"sim"`             // simulated clock; must repeat exactly
	Host      map[string]float64 `json:"host"`            // host clock
	Layer     map[string]float64 `json:"layer"`           // per-layer figures and counts of this run
	Samples   map[string]int     `json:"samples"`         // sample counts behind the percentiles
	Rungs     map[string]float64 `json:"rungs,omitempty"` // the ladder: "<rung>/<dir>/<shape>" -> simulated us
	Spans     []span             `json:"spans,omitempty"`
	FirstErr  string             `json:"first_error,omitempty"`
}

// passTiming is the simulated window of one direction of one pass.
type passTiming struct {
	start, end sim.Time
	started    bool
}

func (t *passTiming) begin(now sim.Time) {
	if !t.started {
		t.start, t.started = now, true
	}
}

func (t *passTiming) done(now sim.Time) {
	if now > t.end {
		t.end = now
	}
}

func (t *passTiming) window() sim.Time { return t.end - t.start }

// runOpts are the knobs of one run.
type runOpts struct {
	seed      int64
	scale     int  // volume divisor: 1 at full volume, 16 for -short
	traced    bool // switch on cluster.Config.Tracer and Metrics, record spans
	setupOnly bool // set up, release the start barrier and close: only setup_s is reported
}

// runWorkload builds the workload's cluster and runs its passes once.
func runWorkload(w *workload, o runOpts) (*repResult, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in := genInputs(o.seed, w.clients)
	// The buffers of the strided calls are inputs too (want[i][k][j] is what
	// client i moves in call j of pass k): built here, outside the set-up
	// that setup_s times.
	n := w.clients
	want := make([][][][]byte, n)
	for i := range want {
		want[i] = make([][][]byte, len(w.passes))
		for k, ps := range w.passes {
			for j := 0; ps.strided() && j < scaledCalls(ps.calls, o.scale); j++ {
				want[i][k] = append(want[i][k], in.stridedPayload(int64(in.perm[i])*interleave, int64(j)*int64(ps.req), ps.req, n))
			}
		}
	}

	cfg := cluster.Config{Clients: w.clients, Servers: w.servers}
	mpiWorld := false
	for _, ps := range w.passes {
		mpiWorld = mpiWorld || ps.strided()
	}
	cfg.DAFS, cfg.NFS, cfg.MPI = !w.nfs, w.nfs, mpiWorld
	if o.traced {
		cfg.Tracer = trace.New
		cfg.Metrics = metrics.Installer(sim.Millisecond)
	}
	if w.crashAt > 0 {
		cfg.Faults = fault.Installer(fault.Plan{Events: []fault.Event{
			{At: w.crashAt, Kind: fault.ServerCrash, Node: "server1"},
		}})
	}
	// setup_s starts here: everything before is the harness, not the stack.
	setupStart := time.Now()
	c := cluster.New(cfg)
	newHost := time.Since(setupStart)

	st := layout.Striping{StripeSize: stripeSize, Width: w.servers, Replicas: w.replicas}
	// Empty objects on every server (and replica rank): the files grow under
	// the timed writes; nothing is prefilled.
	for i, ps := range w.passes {
		for _, name := range []string{w.fileName(i), w.fileName(i) + warmSuffix} {
			for t := 0; t < w.servers; t++ {
				for r := 0; r < st.R(); r++ {
					f, err := c.Stores[t].Create(layout.ReplicaName(name, r))
					if err != nil {
						return nil, fmt.Errorf("%s: create %s: %w", w.name, name, err)
					}
					if name != w.fileName(i) {
						// The scratch file is sized up front: it is not
						// measured, and growing it under the warm calls would
						// put seconds of regrowth memmove into setup_s.
						f.Truncate(int64(w.clients)*int64(ps.req)/int64(w.servers) + stripeSize)
					}
				}
			}
		}
	}

	// One barrier before each direction of each pass, and one after the last.
	barriers := make([]*sim.WaitGroup, 2*len(w.passes)+1)
	for i := range barriers {
		barriers[i] = sim.NewWaitGroup(c.K, n)
	}
	sync := func(p *sim.Proc, b int) {
		barriers[b].Done()
		barriers[b].Wait(p)
	}
	wr := make([]passTiming, len(w.passes))
	rd := make([]passTiming, len(w.passes))
	wrLat := make([][]sim.Time, n) // latency-class samples, per client
	rdLat := make([][]sim.Time, n)
	firstAfter := make([]sim.Time, n) // first write completion after the crash
	var dialStart, dialEnd time.Time  // host interval from the first dial to the last one done
	errs := make([]error, n)
	var attempted, failed, mismatched int64
	var firstErr string
	fail := func(format string, a ...any) {
		failed++
		if firstErr == "" {
			firstErr = fmt.Sprintf(format, a...)
		}
	}
	var hostStart, hostEnd time.Time
	var snap0, snap1 snapshot
	var ended bool
	var sessions [][]*dafs.Client
	var mounts []*nfs.Client
	rec := &spanRecorder{on: o.traced}

	runErr := c.SpawnClients(func(p *sim.Proc, i int) {
		fail1 := func(err error) {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		// Set-up: sessions or mount, then per pass one warm call and the open file.
		var drv mpiio.Driver
		if dialStart.IsZero() {
			dialStart = time.Now()
		}
		switch {
		case w.nfs:
			m, err := c.MountNFS(p, i, nil)
			if err != nil {
				fail1(err)
				break
			}
			mounts = append(mounts, m)
			drv = mpiio.NewNFSDriver(m)
		case w.servers == 1:
			cl, err := c.DialDAFS(p, i, nil)
			if err != nil {
				fail1(err)
				break
			}
			sessions = append(sessions, []*dafs.Client{cl})
			drv = mpiio.NewDAFSDriver(cl)
		default:
			var dopts *dafs.Options
			if w.crashAt > 0 {
				dopts = &dafs.Options{CallTimeout: callTimeout}
			}
			pool, err := c.DialDAFSAll(p, i, dopts)
			if err != nil {
				fail1(err)
				break
			}
			sd := mpiio.NewStripedDAFSDriver(pool, st)
			if w.crashAt > 0 {
				sd.Retry = retryPolicy
			}
			sessions = append(sessions, pool)
			drv = sd
		}
		dialEnd = time.Now()
		var rank *mpi.Rank
		if mpiWorld {
			rank = c.World.Rank(i)
		}
		region := in.perm[i]
		files := make([]*mpiio.File, len(w.passes))
		bufs := make([][]byte, len(w.passes))
		for k, ps := range w.passes {
			if errs[i] != nil {
				break
			}
			disp := int64(region) * interleave
			open := func(name string) (*mpiio.File, error) {
				var hints *mpiio.Hints
				if ps.kind == passPerSeg {
					hints = &mpiio.Hints{NoBatch: true}
				}
				f, err := mpiio.Open(p, rank, drv, name, mpiio.ModeRdWr, hints)
				if err == nil && ps.strided() {
					err = f.SetView(disp, mpiio.Vector(1, interleave, interleave).Resized(int64(n*interleave)))
				}
				return f, err
			}
			bufs[k] = make([]byte, ps.req)
			// Warm the registration cache, the sessions and the staging pool
			// with one call of the pass's shape (a per-segment call is
			// thousands of operations, so only its first 4KB) on a scratch
			// file, so that the measured file is still empty at the barrier.
			scratch, err := open(w.fileName(k) + warmSuffix)
			if err != nil {
				fail1(err)
				break
			}
			warm := ps.req
			if ps.kind == passPerSeg {
				warm = min(warm, 4<<10)
			}
			off := int64(0)
			if !ps.strided() {
				off = int64(region) * int64(ps.req)
			}
			var nw int
			if ps.kind == passColl {
				nw, err = scratch.WriteAtAll(p, off, bufs[k][:warm])
			} else {
				nw, err = scratch.WriteAt(p, off, bufs[k][:warm])
			}
			if err == nil && nw == warm {
				err = scratch.Close(p)
			}
			if err != nil || nw != warm {
				fail1(fmt.Errorf("warm-up %s: n=%d err=%v", ps.label, nw, err))
				break
			}
			if files[k], err = open(w.fileName(k)); err != nil {
				fail1(err)
			}
		}
		if errs[i] != nil {
			// A client that cannot set up still passes every barrier so the
			// others finish; the run is reported as failed.
			for b := range barriers {
				sync(p, b)
			}
			return
		}

		for k, ps := range w.passes {
			f, buf := files[k], bufs[k]
			calls := scaledCalls(ps.calls, o.scale)
			if o.setupOnly {
				calls = 0
			}
			for dir := 0; dir < 2; dir++ {
				write := dir == 0
				sync(p, 2*k+dir)
				if k == 0 && write && hostStart.IsZero() {
					hostStart = time.Now()
					snap0 = takeSnapshot(c)
				}
				tm := &rd[k]
				if write {
					tm = &wr[k]
				}
				tm.begin(p.Now())
				for j := 0; j < calls; j++ {
					off := w.offset(k, region, j, calls)
					exp := w.expected(in, want[i], k, region, j, calls)
					if write {
						copy(buf, exp)
					} else {
						clear(buf)
					}
					sp := rec.begin(w.name, ps.label, write, i, j, p.Now())
					t0 := p.Now()
					var got int
					var err error
					switch {
					case ps.kind == passColl && write:
						got, err = f.WriteAtAll(p, off, buf)
					case ps.kind == passColl:
						got, err = f.ReadAtAll(p, off, buf)
					case write:
						got, err = f.WriteAt(p, off, buf)
					default:
						got, err = f.ReadAt(p, off, buf)
					}
					now := p.Now()
					rec.end(sp, now)
					attempted++
					switch {
					case err != nil || got != len(buf):
						fail("%s/%s client%d call %d: n=%d err=%v", w.name, ps.label, i, j, got, err)
					case !write && !bytes.Equal(buf, exp):
						mismatched++
						fail("%s/%s client%d call %d: read-back mismatch", w.name, ps.label, i, j)
					}
					if ps.latency {
						if write {
							wrLat[i] = append(wrLat[i], now-t0)
						} else {
							rdLat[i] = append(rdLat[i], now-t0)
						}
					}
					if write && w.crashAt > 0 && firstAfter[i] == 0 && now > w.crashAt {
						firstAfter[i] = now
					}
				}
				tm.done(p.Now())
			}
		}
		sync(p, len(barriers)-1)
		if !ended {
			snap1, ended = takeSnapshot(c), true
		}
		for _, f := range files {
			f.Close(p)
		}
	})
	hostEnd = time.Now()
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: client%d set-up: %w", w.name, i, err)
		}
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	events := float64(c.K.Events())
	setup := hostStart.Sub(setupStart).Seconds()
	wall := hostEnd.Sub(hostStart).Seconds()

	res := &repResult{
		Workload: w.name, Seed: o.seed, Traced: o.traced,
		Attempted: attempted, Failed: failed, Mismatch: mismatched, FirstErr: firstErr,
		Sim: map[string]float64{}, Host: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{},
	}
	res.Host["setup_s"] = setup
	if o.setupOnly {
		return res, nil
	}
	// Simulated clock.
	var wrBytes, rdBytes int64
	var wrWin, rdWin sim.Time
	for k, ps := range w.passes {
		b := int64(n) * int64(ps.req) * int64(scaledCalls(ps.calls, o.scale))
		wrBytes, rdBytes = wrBytes+b, rdBytes+b
		wrWin, rdWin = wrWin+wr[k].window(), rdWin+rd[k].window()
		switch {
		case len(w.passes) == 1: // the pooled figure is the pass's
		case ps.strided():
			res.Layer["mpiio."+ps.label+"_write_MBps"] = stats.MBps(b, wr[k].window())
			res.Layer["mpiio."+ps.label+"_read_MBps"] = stats.MBps(b, rd[k].window())
		default:
			res.Layer["mpiio.write_MBps_"+ps.label] = stats.MBps(b, wr[k].window())
			res.Layer["mpiio.read_MBps_"+ps.label] = stats.MBps(b, rd[k].window())
		}
	}
	res.Sim["sim_write_MBps"] = stats.MBps(wrBytes, wrWin)
	res.Sim["sim_read_MBps"] = stats.MBps(rdBytes, rdWin)
	wl, rl := flatten(wrLat), flatten(rdLat)
	res.Samples["write_op"], res.Samples["read_op"] = len(wl), len(rl)
	res.Sim["sim_write_op_p50_us"] = percentile(wl, 0.50)
	res.Sim["sim_write_op_p95_us"] = percentile(wl, 0.95)
	res.Sim["sim_write_op_max_us"] = percentile(wl, 1)
	res.Sim["sim_read_op_p50_us"] = percentile(rl, 0.50)
	res.Sim["sim_read_op_p95_us"] = percentile(rl, 0.95)
	timed := snap1.sub(snap0)
	res.Sim["sim_client_cpu_ms_per_MB"] = float64(timed.clientCPU) / float64(sim.Millisecond) / (float64(wrBytes+rdBytes) / 1e6)
	if w.crashAt > 0 {
		var recovery sim.Time
		for _, t := range firstAfter {
			recovery = max(recovery, t-w.crashAt)
		}
		res.Layer["fault.recovery_ms"] = float64(recovery) / float64(sim.Millisecond)
	}
	res.Layer["sim.events"] = events

	// Host clock. The two host times of the run are layer metrics: the
	// sandbox cannot resolve them to a bound the PR driver accepts.
	res.Layer["sim.host_wall_s"] = wall
	res.Layer["sim.events_per_host_s"] = events / (setup + wall)
	res.Host["host_peak_rss_MB"] = peakRSSMB()
	res.Host["host_alloc_B_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / events
	res.Host["host_allocs_per_event"] = float64(ms1.Mallocs-ms0.Mallocs) / events
	res.Layer["cluster.new_host_ms"] = newHost.Seconds() * 1e3
	nsess := 0
	for _, pool := range sessions {
		nsess += len(pool)
	}
	res.Layer["cluster.sessions"] = float64(nsess)
	if nsess > 0 {
		// Clients dial interleaved inside one kernel, so the cost per session
		// is the whole dialling interval shared out, not a per-client sum.
		res.Layer["cluster.dial_host_us_per_session"] = dialEnd.Sub(dialStart).Seconds() * 1e6 / float64(nsess)
	}

	layerCounts(res, w, c, st, timed, wrWin+rdWin, sessions, mounts)
	if o.traced {
		tracedLayers(res, c, attempted)
		res.Spans = rec.spans
	}
	return res, nil
}

// fileName names pass k's file; the scratch file its clients warm up on
// carries warmSuffix.
func (w *workload) fileName(k int) string { return w.name + "." + w.passes[k].label }

const warmSuffix = ".warm"

// offset is the view-relative offset of call j of pass k for the client
// that owns the given region.
func (w *workload) offset(k, region, j, calls int) int64 {
	ps := w.passes[k]
	if ps.strided() {
		return int64(j) * int64(ps.req) // the view's displacement places the rank
	}
	return (int64(region)*int64(calls) + int64(j)) * int64(ps.req)
}

// expected is the payload call j of pass k moves.
func (w *workload) expected(in *inputs, want [][][]byte, k, region, j, calls int) []byte {
	if w.passes[k].strided() {
		return want[k][j]
	}
	return in.payload(w.offset(k, region, j, calls), w.passes[k].req)
}

func flatten(per [][]sim.Time) []float64 {
	var out []float64
	for _, s := range per {
		for _, t := range s {
			out = append(out, t.Micros())
		}
	}
	sort.Float64s(out)
	return out
}
