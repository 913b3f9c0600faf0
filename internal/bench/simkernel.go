package bench

import (
	"fmt"

	"dafsio/internal/sim"
)

// KernelLoadConfig sizes the synthetic kernel load: a pure internal/sim
// workload (no fabric, no DAFS) that stresses exactly the machinery the
// simulator kernel provides — the event queue across all its time scales,
// proc spawn/park/wake churn, channels, and timers — at populations far
// beyond what the modeled experiments reach. The load itself is
// allocation-free in steady state (pooled sub-op closures, reusable timer
// events), so the wall clock the benchmark's ladder times it by
// (sim.synthetic_events_per_s) measures the kernel, not the harness.
// TestKernelLoadMatchesCommittedReport pins the default schedule.
type KernelLoadConfig struct {
	Clients int // client procs issuing requests (default 10000)
	Rounds  int // requests issued per client (default 30)
}

// kernelServers is the number of server procs consuming the requests.
const kernelServers = 100

// withDefaults fills zero fields with the standard 10k-proc load shape.
func (c KernelLoadConfig) withDefaults() KernelLoadConfig {
	if c.Clients == 0 {
		c.Clients = 10000
	}
	if c.Rounds == 0 {
		c.Rounds = 30
	}
	return c
}

// KernelLoadResult reports what the load did, in simulated terms only
// (wall-clock measurement belongs to the caller).
type KernelLoadResult struct {
	Events   uint64   // kernel events dispatched
	SimTime  sim.Time // final virtual clock
	Replies  int64    // completed request/reply round trips
	Checksum uint64   // order+timing digest; equal runs ⇒ equal schedules
}

// kreq is one client's in-flight request; each client reuses a single kreq
// and reply channel across all its rounds. A request fans out to
// kernelStripe sub-ops on the server (mirroring the repo's striped I/O,
// where one client op becomes one sub-op per stripe server); the last
// sub-op to finish sends the completion time on reply.
type kreq struct {
	remaining int
	reply     *sim.Chan[sim.Time]
}

// kop is a pooled server sub-op: its proc body is bound once (fn), so
// spawning a sub-op handler allocates nothing once the per-server pool has
// warmed up.
type kop struct {
	slow sim.Time
	req  *kreq
	fn   func(h *sim.Proc)
}

// kernelStripe is the per-request fan-out width, matching the default
// stripe width used by the modeled file layouts.
const kernelStripe = 4

// thinkTimes cycles client think time across the queue's time scales:
// sub-microsecond (near wheel level 0), tens of microseconds, and
// milliseconds, so the benchmark exercises short and long horizons alike.
var thinkTimes = []sim.Time{700 * sim.Nanosecond, 30 * sim.Microsecond, 2 * sim.Millisecond}

// noopDeadline is the shared action for every armed deadline: the call it
// guards always completes first, so it fires as a no-op.
var noopDeadline = func() {}

// deadlines are the per-call timeouts armed for every request, mirroring
// the DAFS client's CallTimeout: the call always completes first, so the
// timer fires as a no-op — which is precisely the hard case for an event
// queue, a large standing population of pending timers that every push
// and pop must shoulder. All requests issue within a few simulated
// milliseconds, so tens of thousands of these are pending at any instant,
// across several wheel levels.
var deadlines = []sim.Time{50 * sim.Microsecond, 200 * sim.Microsecond, 1 * sim.Millisecond}

// RunKernelLoad drives the synthetic load to completion and returns its
// deterministic result. The topology: kernelServers daemon procs each
// draining an unbounded request channel and spawning kernelStripe
// short-lived sub-op handler procs per request (goroutine pooling's hot
// path; most sub-ops complete without parking, every seventh request's
// first stripe charges real service time), Clients procs each doing Rounds
// round trips against a rotating server with think time between rounds,
// and a no-op deadline timer armed per request. A few far-future "scrub"
// timers per server land beyond the request traffic to exercise the
// queue's overflow horizon.
func RunKernelLoad(cfg KernelLoadConfig) KernelLoadResult {
	cfg = cfg.withDefaults()
	k := sim.NewKernel()
	defer k.Shutdown()

	// Deadline timers ride the kernel's pooled At/After events with a
	// shared no-op action, and Reserve pre-sizes that pool past the
	// worst-case standing population (the first-round burst, when every
	// client arms within a few simulated microseconds), so arming is
	// allocation-free from the first event.
	k.Reserve(4 * cfg.Clients)
	narm := 0
	arm := func() {
		k.After(deadlines[narm%len(deadlines)], noopDeadline)
		narm++
	}

	var queues [kernelServers]*sim.Chan[*kreq]
	for s := range queues {
		q := sim.NewChan[*kreq](k, 0)
		queues[s] = q
		hname := fmt.Sprintf("srv%d.h", s)
		// Pooled sub-ops: fn is bound to the op once, so per-spawn cost is
		// pool bookkeeping only.
		var ops []*kop
		getOp := func() *kop {
			if n := len(ops); n > 0 {
				o := ops[n-1]
				ops = ops[:n-1]
				return o
			}
			o := &kop{}
			o.fn = func(h *sim.Proc) {
				if o.slow > 0 {
					h.Wait(o.slow)
				}
				r := o.req
				o.req = nil
				ops = append(ops, o)
				r.remaining--
				if r.remaining == 0 {
					r.reply.TrySend(h.Now())
				}
			}
			return o
		}
		k.SpawnDaemon(fmt.Sprintf("srv%d", s), func(p *sim.Proc) {
			for n := 0; ; n++ {
				req, ok := q.Recv(p)
				if !ok {
					return
				}
				// Most sub-ops hit the fast path and complete without
				// parking (a cache hit); every seventh request's first
				// stripe models a miss that charges real service time.
				service := sim.Time(0)
				if n%7 == 0 {
					service = sim.Time(200+(n%5)*450) * sim.Nanosecond
				}
				for j := 0; j < kernelStripe; j++ {
					o := getOp()
					o.req = req
					if j == 0 {
						o.slow = service
					} else {
						o.slow = 0
					}
					p.Spawn(hname, o.fn)
				}
			}
		})
		// Far-future scrub timers: beyond any wheel horizon, so the
		// overflow level sees real traffic every run.
		for j := 0; j < 2; j++ {
			k.At(sim.Seconds(2)+sim.Time(s*1000+j), func() {})
		}
	}

	var (
		replies  int64
		checksum uint64
	)
	const fnvPrime = 1099511628211
	for i := 0; i < cfg.Clients; i++ {
		req := &kreq{reply: sim.NewChan[sim.Time](k, 0)}
		k.Spawn(fmt.Sprintf("cli%d", i), func(p *sim.Proc) {
			for r := 0; r < cfg.Rounds; r++ {
				req.remaining = kernelStripe
				arm() // standing no-op deadline, never consequential
				queues[(i+r)%kernelServers].Send(p, req)
				t, _ := req.reply.Recv(p)
				replies++
				// FNV-1a over (client, round, completion time): any
				// divergence in scheduling order or timing changes it.
				for _, v := range [3]uint64{uint64(i), uint64(r), uint64(t)} {
					checksum ^= v
					checksum *= fnvPrime
				}
				p.Wait(thinkTimes[(i+r)%len(thinkTimes)])
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: kernel load failed: %v", err))
	}
	return KernelLoadResult{
		Events:   k.Events(),
		SimTime:  k.Now(),
		Replies:  replies,
		Checksum: checksum,
	}
}
