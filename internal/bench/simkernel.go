package bench

import (
	"fmt"

	"dafsio/internal/metrics"
	"dafsio/internal/sim"
)

// KernelLoadConfig sizes the synthetic kernel benchmark: a pure
// internal/sim workload (no fabric, no DAFS) that stresses exactly the
// machinery the simulator kernel provides — the event queue across all its
// time scales, proc spawn/park/wake churn, channels, and timers — at
// populations far beyond what the modeled experiments reach. The load
// itself is allocation-free in steady state (pooled requests, pooled
// sub-op closures, reusable timer events), so the wall-clock and
// allocation numbers cmd/simbench derives from it measure the kernel, not
// the benchmark harness. cmd/simbench emits the result as
// BENCH_simkernel.json.
type KernelLoadConfig struct {
	Clients int // client procs issuing requests (default 10000)
	Servers int // server procs consuming them (default 100)
	Rounds  int // requests issued per client (default 30)

	// Faults, when positive, makes each server silently drop roughly one
	// request in Faults (deterministically, by arrival count): no sub-ops
	// run and no reply is sent, so the issuing client rides its retry
	// deadline and re-drives the round on another server with a fresh
	// request generation — the timeout/retry machinery under load.
	// Zero (the default) disables injection entirely: the load, its event
	// count, and its checksum are identical to the fault-free benchmark.
	Faults int

	// MetricsTick, when positive, installs a metrics registry sampling the
	// kernel's own gauges (events dispatched, live procs, pending events)
	// on that interval of simulated time. Sampling is observational: the
	// load's timings and checksum are identical with it on or off — only
	// the dispatched-event count grows by the tick events themselves.
	MetricsTick sim.Time
}

// WithDefaults fills zero fields with the standard 10k-proc load shape.
func (c KernelLoadConfig) WithDefaults() KernelLoadConfig {
	if c.Clients == 0 {
		c.Clients = 10000
	}
	if c.Servers == 0 {
		c.Servers = 100
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
	Timeouts int64    // retry deadlines that fired (0 unless Faults > 0)
	Checksum uint64   // order+timing digest; equal runs ⇒ equal schedules

	Reg *metrics.Registry // non-nil when MetricsTick > 0
}

// kreq is one client's in-flight request; each client reuses a single kreq
// and reply channel across all its rounds. A request fans out to
// kernelStripe sub-ops on the server (mirroring the repo's striped I/O,
// where one client op becomes one sub-op per stripe server); the last
// sub-op to finish sends the completion time on reply. gen is the
// request's generation, bumped on every (re)issue: replies and decrements
// from an older generation — a sub-op that straggled past a retry — are
// discarded by the guard, the same stale-completion discipline the DAFS
// client's epoch counters implement.
type kreq struct {
	client    int
	gen       uint64
	remaining int
	reply     *sim.Chan[kreply]
}

// kreply is one message on a client's reply channel: the completion time
// of a request generation, or (fault mode) its retry deadline firing.
type kreply struct {
	gen     uint64
	t       sim.Time
	timeout bool
}

// kop is a pooled server sub-op: its proc body is bound once (fn), so
// spawning a sub-op handler allocates nothing once the per-server pool has
// warmed up. gen snapshots the request generation at dispatch time.
type kop struct {
	slow sim.Time
	gen  uint64
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

// deadlines are the per-call timeouts armed for every request (client
// side) and every stripe sub-op (server side), mirroring the DAFS client's
// CallTimeout: the call always completes first, so the timer fires as a
// no-op — which is precisely the hard case for an event queue, a large
// standing population of pending timers that every push and pop must
// shoulder. All requests issue within a few simulated milliseconds, so
// tens of thousands of these are pending at any instant, across several
// wheel levels.
var deadlines = []sim.Time{50 * sim.Microsecond, 200 * sim.Microsecond, 1 * sim.Millisecond}

// faultRetryAfter is the real (consequential) per-request deadline armed in
// fault mode: long past any healthy reply latency, so it fires only for
// dropped requests.
const faultRetryAfter = 20 * sim.Microsecond

// RunKernelLoad drives the synthetic load to completion and returns its
// deterministic result. The topology: Servers daemon procs each draining
// an unbounded request channel and spawning kernelStripe short-lived
// sub-op handler procs per request (goroutine pooling's hot path; most
// sub-ops complete without parking, every seventh request's first stripe
// charges real service time), Clients procs each doing Rounds round trips
// against a rotating server with think time between rounds, and a no-op
// deadline timer armed per request and per sub-op. A few far-future
// "scrub" timers per server land beyond the request traffic to exercise
// the queue's overflow horizon.
func RunKernelLoad(cfg KernelLoadConfig) KernelLoadResult {
	cfg = cfg.WithDefaults()
	k := sim.NewKernel()
	defer k.Shutdown()
	var reg *metrics.Registry
	if cfg.MetricsTick > 0 {
		reg = metrics.New(k)
		reg.StartSampler(cfg.MetricsTick)
	}

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

	queues := make([]*sim.Chan[*kreq], cfg.Servers)
	for s := 0; s < cfg.Servers; s++ {
		q := sim.NewChan[*kreq](k, 0)
		queues[s] = q
		s := s
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
				r, g := o.req, o.gen
				o.req = nil
				ops = append(ops, o)
				if g != r.gen {
					return // straggler from a retired generation
				}
				r.remaining--
				if r.remaining == 0 {
					r.reply.TrySend(kreply{gen: g, t: h.Now()})
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
				// Fault injection: drop the request on the floor — no
				// sub-ops, no reply — and let the client's retry deadline
				// re-drive it. The arrival-count rule is deterministic and
				// staggered per server.
				if cfg.Faults > 0 && (n+s)%cfg.Faults == 0 {
					continue
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
					o.gen = req.gen
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
		timeouts int64
		checksum uint64
	)
	const fnvPrime = 1099511628211
	for i := 0; i < cfg.Clients; i++ {
		i := i
		req := &kreq{client: i, reply: sim.NewChan[kreply](k, 0)}
		k.Spawn(fmt.Sprintf("cli%d", i), func(p *sim.Proc) {
			for r := 0; r < cfg.Rounds; r++ {
				// Each attempt issues a fresh generation; in fault mode a
				// consequential retry deadline races the reply, and stale
				// messages (late timers, straggler completions) are drained
				// by the generation guard.
				for attempt := 0; ; attempt++ {
					req.gen++
					gen := req.gen
					req.remaining = kernelStripe
					arm() // standing no-op deadline, never consequential
					if cfg.Faults > 0 {
						k.After(faultRetryAfter, func() {
							req.reply.TrySend(kreply{gen: gen, timeout: true})
						})
					}
					queues[(i+r+attempt)%cfg.Servers].Send(p, req)
					rep, _ := req.reply.Recv(p)
					for rep.gen != gen {
						rep, _ = req.reply.Recv(p)
					}
					if !rep.timeout {
						replies++
						// FNV-1a over (client, round, completion time): any
						// divergence in scheduling order or timing changes it.
						for _, v := range [3]uint64{uint64(i), uint64(r), uint64(rep.t)} {
							checksum ^= v
							checksum *= fnvPrime
						}
						break
					}
					// Dropped: fold the timeout into the digest and re-drive
					// the round on the next server.
					timeouts++
					for _, v := range [3]uint64{uint64(i), uint64(r), ^uint64(attempt)} {
						checksum ^= v
						checksum *= fnvPrime
					}
				}
				p.Wait(thinkTimes[(i+r)%len(thinkTimes)])
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("bench: kernel load failed: %v", err))
	}
	reg.SampleNow() // close the series at the final instant (nil-safe)
	return KernelLoadResult{
		Events:   k.Events(),
		SimTime:  k.Now(),
		Replies:  replies,
		Timeouts: timeouts,
		Checksum: checksum,
		Reg:      reg,
	}
}
