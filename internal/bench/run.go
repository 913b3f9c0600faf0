package bench

import (
	"bytes"
	"errors"
	"fmt"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/fault"
	"dafsio/internal/layout"
	"dafsio/internal/metrics"
	"dafsio/internal/model"
	"dafsio/internal/mpi"
	"dafsio/internal/mpiio"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
	"dafsio/internal/trace"
)

// The measured runs. Every cell of every table comes from a point handed
// to run. A point that times file data through MPI-IO is its fields alone
// and runs through transfer; the rest carry a body of their own: T1's runs
// on a bare VIA pair (micro.go), and T9's, T10's and T19's, which build
// their cluster with newCluster and connect with open as transfer does.

// stack is the client side of a point: the transport every client opens
// the file through, one session or mount per server under the striped
// driver. With one server that is the paper's client and its baseline.
type stack int

const (
	dafsStack stack = iota // DAFS sessions
	nfsStack               // NFS mounts
)

func (st stack) String() string { return [...]string{"dafs", "nfs"}[st] }

// point is one measured run. Every client opens name over stack and moves
// per bytes in req-byte calls: from its own region [i*per, (i+1)*per) of
// the file, or through its share of an interleaved view. The clients start
// together after a barrier; the measured window closes with the last
// client's last call.
type point struct {
	id       string // experiment, stamped by the runner and named in failures
	label    string // what the fields do not say, for mpio list
	clients  int
	servers  int // stripe width; 0 or 1 is the paper's single server
	replicas int // copies of each stripe (DAFS)
	stack    stack
	profile  *model.Profile // cost model; nil is clan-1998
	disk     bool           // servers read through a disk model instead of a cache
	name     string         // file name
	req      int            // bytes per call
	per      int64          // bytes each client moves
	write    bool
	warm     bool             // one untimed call at the region's start first
	view     *view            // nil: contiguous regions
	faults   *fault.Plan      // nil: a fault-free cluster
	opts     *dafs.Options    // DAFS session options
	retry    dafs.RetryPolicy // DAFS session recovery
	verify   bool             // read the region back after the window and check every byte

	// tune adjusts the DAFS driver before the file opens.
	tune func(*mpiio.StripedDAFSDriver)

	// body runs the point in place of transfer.
	body func(point, Observation) Result
}

// view interleaves the clients: rank i owns every clients-th block of the
// file from block i on, and moves its per bytes through it in one call.
type view struct {
	block      int64
	collective bool // writes go through two-phase collective I/O
	hints      mpiio.Hints
}

// Observation selects what a run records beside its result. Both planes
// are observational: the simulated numbers are identical with them on or
// off.
type Observation struct {
	Trace bool     // record cross-layer spans
	Tick  sim.Time // sample the metrics plane on this interval; 0 is off
}

// Result is one run: the measured window, its bandwidth, and whatever the
// Observation recorded.
type Result struct {
	ID         string
	MBps       float64
	Start, End sim.Time // the measured window: after warm-up and the barrier
	Recovery   sim.Time // latest first completion after the fault, minus its instant
	Retries    int64    // redial attempts over all clients
	Outcome    string
	Err        error             // the first failed call; nil when every call completed
	Tracer     *trace.Tracer     // nil unless traced
	Reg        *metrics.Registry // nil unless sampled

	srvCPU  float64  // server 0's CPU busy share from the window's start to the run's end
	disk    float64  // server 0's disk busy share over the window (0 without a disk)
	cpuMB   sim.Time // client CPU busy time over the window, summed across clients, per MB moved
	corrupt bool     // a read-back differed from what was written
	phases  []phase  // the windows a body times beside the main one: T10's probes, T19's phases
	epoch   uint32   // the layout epoch the run ends at (T19)
}

// phase is one window a body times: from the first client's start to the
// last client's end, and the bytes the clients moved in it.
type phase struct {
	start, end sim.Time
	bytes      int64
}

// close stretches ph over one client's part of the window, which moved
// bytes.
func (ph *phase) close(now sim.Time, bytes int64) {
	ph.end, ph.bytes = max(ph.end, now), ph.bytes+bytes
}

func (ph phase) dur() sim.Time { return ph.end - ph.start }
func (ph phase) mbps() float64 { return stats.MBps(ph.bytes, ph.dur()) }

// Elapsed returns the measured window's length.
func (r Result) Elapsed() sim.Time { return r.End - r.Start }

// cpuUtil is the client CPU's utilization while streaming: CPU time per
// byte times bytes per second.
func (r Result) cpuUtil() float64 { return float64(r.cpuMB) / 1e9 * r.MBps }

// placement is the striping pt's file has on c: 64KB stripes over every
// server, pt's replicas of each (one server holds the whole file).
func (pt point) placement(c *cluster.Cluster) layout.Striping {
	return layout.Striping{StripeSize: stripeSize, Width: len(c.Stores), Replicas: pt.replicas}
}

// newCluster builds pt's cluster under o and fills the file: a read needs
// every client's region, a write an empty file to grow. Under a view the
// ranks' collective open creates the file, as an MPI program does.
func newCluster(pt point, o Observation) *cluster.Cluster {
	cfg := cluster.Config{
		Clients:    pt.clients,
		Servers:    pt.servers,
		Profile:    pt.profile,
		DAFS:       pt.stack == dafsStack,
		NFS:        pt.stack == nfsStack,
		MPI:        pt.view != nil,
		ServerDisk: pt.disk,
	}
	if pt.faults != nil {
		cfg.Faults = fault.Installer(*pt.faults)
	}
	if o.Trace {
		cfg.Tracer = trace.New
	}
	if o.Tick > 0 {
		cfg.Metrics = metrics.Installer(o.Tick)
	}
	c := cluster.New(cfg)
	if pt.view == nil {
		var n int64
		if !pt.write {
			n = int64(pt.clients) * pt.per
		}
		prefill(c, pt.name, n, pt.placement(c))
	}
	return c
}

// prefill writes a dense n-byte file into the stores directly (zero
// simulated time): every rank object of every server, with a 64KB-periodic
// pattern, so each byte is byte(its logical offset) on any layout width
// and every replica holds the same bytes as its primary.
func prefill(c *cluster.Cluster, name string, n int64, st layout.Striping) {
	pat := make([]byte, 64<<10)
	for i := range pat {
		pat[i] = byte(i)
	}
	sizes := st.ObjectSizes(n)
	for t := 0; t < st.Width; t++ {
		for r := 0; r < st.R(); r++ {
			f, err := c.Stores[t].Create(layout.ReplicaName(name, r))
			if err != nil {
				panic(err)
			}
			size := sizes[(t-r+st.Width)%st.Width]
			for off := int64(0); off < size; off += int64(len(pat)) {
				f.WriteAt(pat[:min(int64(len(pat)), size-off)], off)
			}
		}
	}
}

// open connects client i over pt's stack and opens pt's file under its
// view. The driver is returned for the runs that steer it.
func open(p *sim.Proc, c *cluster.Cluster, pt point, i int) (*mpiio.File, mpiio.Driver) {
	var drv mpiio.Driver
	var err error
	switch pt.stack {
	case dafsStack:
		var pool []*dafs.Client
		if pool, err = c.DialDAFSAll(p, i, pt.opts); err == nil {
			d := mpiio.NewStripedDAFSDriver(pool, pt.placement(c))
			d.Retry = pt.retry
			if pt.tune != nil {
				pt.tune(d)
			}
			drv = d
		}
	case nfsStack:
		var mounts []*nfs.Client
		if mounts, err = c.MountNFSAll(p, i, nil); err == nil {
			drv = mpiio.NewStripedNFSDriver(mounts, pt.placement(c))
		}
	}
	if err != nil {
		panic(fmt.Sprintf("bench: %s: client%d connect: %v", pt.id, i, err))
	}
	var rank *mpi.Rank
	var hints *mpiio.Hints
	if pt.view != nil {
		rank, hints = c.World.Rank(i), &pt.view.hints
	}
	f, err := mpiio.Open(p, rank, drv, pt.name, mpiio.ModeRdWr|mpiio.ModeCreate, hints)
	if err == nil && pt.view != nil {
		b := pt.view.block
		err = f.SetView(int64(i)*b, mpiio.Vector(pt.per/b, b, int64(pt.clients)*b))
	}
	if err != nil {
		panic(fmt.Sprintf("bench: %s: client%d open: %v", pt.id, i, err))
	}
	return f, drv
}

// stamp writes the check pattern for a buffer at file offset abs. Byte x is
// a function of x that differs across stripes (a low-byte counter repeats
// every 256 bytes and aliases 64KB-aligned stripe offsets), so a fragment
// landing at the wrong object offset, or read back from a stale replica,
// fails verification.
func stamp(buf []byte, abs int64) {
	for j := range buf {
		x := abs + int64(j)
		buf[j] = byte(x ^ x>>8 ^ x>>16)
	}
}

// call returns client i's checked I/O call for pt: a read, or a write
// stamped with the check pattern for its offset (collective under a
// collective view). The call fails unless it moves all of buf without
// error, and the failure names the experiment, client and offset.
func (pt point) call(p *sim.Proc, f *mpiio.File, i int, write bool) func(off int64, buf []byte) (int, error) {
	op, verb := f.ReadAt, "read"
	switch {
	case write && pt.view != nil && pt.view.collective:
		op, verb = f.WriteAtAll, "write"
	case write:
		op, verb = f.WriteAt, "write"
	}
	return func(off int64, buf []byte) (int, error) {
		if write {
			stamp(buf, off)
		}
		n, err := op(p, off, buf)
		if err == nil && n != len(buf) {
			err = fmt.Errorf("moved %d of %d bytes", n, len(buf))
		}
		if err != nil {
			return n, fmt.Errorf("%s: client%d %s at %d: %w", pt.id, i, verb, off, err)
		}
		return n, nil
	}
}

// run is the one runner: it runs pt under o, through pt's body or
// transfer. A failed call or a corrupt read-back is a result only for a
// point with a fault plan (T16's unreplicated kill); anywhere else it is a
// bug in the model, and run panics.
func run(pt point, o Observation) Result {
	body := pt.body
	if body == nil {
		body = transfer
	}
	r := body(pt, o)
	r.ID = pt.id
	if r.Outcome == "" {
		r.Outcome = pt.outcome(r)
	}
	if pt.faults == nil && (r.Err != nil || r.corrupt) {
		panic(fmt.Sprintf("bench: %s: %s", pt.id, r.Outcome))
	}
	return r
}

// transfer moves pt's file data. A failed call ends its client's run and
// the first to fail is the Result's Err; the other clients carry on.
func transfer(pt point, o Observation) Result {
	c := newCluster(pt, o)
	var at sim.Time // the fault's instant: recovery is measured from it
	if pt.faults != nil {
		at = pt.faults.Events[0].At
	}
	r := Result{Tracer: c.Tracer, Reg: c.Metrics}
	srvCPU := c.ServerNode.CPU
	var cpu0, disk0 sim.Time
	cli0 := make([]sim.Time, pt.clients) // each client's CPU busy time at the window's start
	var cliCPU sim.Time
	ready := sim.NewWaitGroup(c.K, pt.clients)
	first := make([]sim.Time, pt.clients) // first completion after at
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		f, drv := open(p, c, pt, i)
		move := pt.call(p, f, i, pt.write)
		buf := make([]byte, pt.req)
		base := int64(i) * pt.per
		if pt.view != nil {
			base = 0 // the view places each rank's bytes
		}
		var err error
		if pt.warm {
			_, err = move(base, buf)
		}
		ready.Done()
		ready.Wait(p)
		if r.Start == 0 {
			r.Start, cpu0, disk0 = p.Now(), srvCPU.BusyTime(), diskBusy(c)
			for j, n := range c.ClientNodes {
				cli0[j] = n.CPU.BusyTime()
			}
		}
		for off := int64(0); err == nil && off < pt.per; off += int64(pt.req) {
			if _, err = move(base+off, buf); err == nil && first[i] == 0 && p.Now() > at {
				first[i] = p.Now()
			}
		}
		if pt.view != nil {
			c.World.Rank(i).Barrier(p)
		}
		if err == nil {
			r.End = p.Now() // the clients finish in simulated-time order
			r.disk = float64(diskBusy(c) - disk0)
			cliCPU += c.ClientNodes[i].CPU.BusyTime() - cli0[i]
		}
		if err == nil && pt.verify {
			// A fresh buffer, registered on first use like any application
			// buffer: the read-back of a client that finishes early
			// contends with the stragglers' writes.
			readBack, got, want := pt.call(p, f, i, false), make([]byte, pt.req), make([]byte, pt.req)
			for off := int64(0); err == nil && off < pt.per; off += int64(pt.req) {
				if _, err = readBack(base+off, got); err == nil {
					if stamp(want, base+off); !bytes.Equal(got, want) {
						r.corrupt = true
						break
					}
				}
			}
		}
		if d, ok := drv.(*mpiio.StripedDAFSDriver); ok {
			r.Retries += d.Retries
		}
		if r.Err == nil {
			r.Err = err
		}
		f.Close(p)
	})
	end(c, err)
	if r.Err == nil {
		r.MBps = stats.MBps(int64(pt.clients)*pt.per, r.Elapsed())
		r.srvCPU = float64(srvCPU.BusyTime()-cpu0) / float64(r.Elapsed())
		r.disk /= float64(r.Elapsed())
		r.cpuMB = sim.Time(float64(cliCPU) / (float64(int64(pt.clients)*pt.per) / 1e6))
		if pt.faults != nil {
			for _, t := range first {
				if t > 0 {
					r.Recovery = max(r.Recovery, t-at)
				}
			}
		}
	}
	return r
}

// outcome names how r ended.
func (pt point) outcome(r Result) string {
	switch {
	case errors.Is(r.Err, dafs.ErrAllReplicasDown):
		return "failed: all replicas down"
	case r.Err != nil:
		return "failed: " + r.Err.Error()
	case r.corrupt:
		return "CORRUPT read-back"
	case !pt.verify:
		return "ok"
	case pt.faults != nil:
		return "recovered, verified"
	default:
		return "ok, verified"
	}
}

// seq is the single-client sequential point: size-byte calls over total
// bytes of file "f", after one untimed call that warms registrations.
func seq(st stack, size int, total int64, write bool) point {
	return point{clients: 1, stack: st, name: "f", req: size, per: total, write: write, warm: true}
}

// String describes pt as mpio list prints it: its label, then, unless it
// has a body, the transfer its fields make.
func (pt point) String() string {
	if pt.body != nil {
		return pt.label
	}
	verb := "read"
	if pt.write {
		verb = "write"
	}
	s := fmt.Sprintf("%v, %d-client, %d-server, %s %s each in %s calls",
		pt.stack, pt.clients, max(pt.servers, 1), verb, stats.Size(pt.per), stats.Size(int64(pt.req)))
	if pt.view != nil {
		s += ", interleaved in " + stats.Size(pt.view.block) + " blocks"
	}
	if pt.label != "" {
		s = pt.label + ": " + s
	}
	return s
}

// labeled returns pt with a label.
func labeled(label string, pt point) point {
	pt.label = label
	return pt
}

// under returns pt on another cost model.
func (pt point) under(prof *model.Profile) point {
	pt.profile = prof
	return pt
}

// diskBusy is server 0's disk busy time so far; 0 when it has no disk.
func diskBusy(c *cluster.Cluster) sim.Time {
	if c.Disk == nil {
		return 0
	}
	return c.Disk.BusyTime()
}
