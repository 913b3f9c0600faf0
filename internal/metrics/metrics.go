// Package metrics is the simulator's opt-in observability plane: a
// registry of typed instruments (monotonic counters, gauges, log2 latency
// histograms) registered once per component under stable hierarchical
// names ("dafs.server.server1.queue_depth", "via.nic.client0.tx_bytes",
// "mpiio.striped.client0.retries") and a simulated-time sampler that
// snapshots every instrument on a configurable tick into in-memory time
// series. A run has a registry only when cluster.Config.Metrics installs
// one, which `mpio stat` and the benchmark's traced run do; every other
// run carries none.
//
// Everything here is observational, like internal/trace: instruments
// never wake procs, never advance virtual time, and never touch the
// fabric, so a run with metrics enabled produces byte-identical simulated
// results to the same run without (the sampler's tick events consume
// kernel sequence numbers but preserve the relative order of all other
// events). Identical runs produce byte-identical metric dumps: sampling
// happens at virtual-time instants, series are keyed by sorted names, and
// no wall-clock or map-iteration order reaches the output (export.go).
//
// Like a *trace.Tracer, a nil *Registry is valid everywhere and turns the
// whole plane off: registration on a nil registry returns zero-value
// instruments whose methods are no-ops, so instrumented layers carry no
// conditionals and near-zero cost when metrics are disabled.
package metrics

import (
	"fmt"
	"sort"

	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// Kind discriminates instrument types.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota // monotonic count
	KindGauge               // instantaneous level
	KindHist                // log2 histogram of observations
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "hist"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Point is one sampled value of a counter or gauge.
type Point struct {
	At sim.Time
	V  int64
}

// HistPoint is one sampled summary of a histogram: cumulative count and
// quantiles as of the sampling instant.
type HistPoint struct {
	At                 sim.Time
	N                  int64
	P50, P95, P99, Max int64
}

// instrument is one registered metric. Push instruments hold their value
// in v (counters, gauges) or hist; func-backed instruments evaluate fn at
// each sampling instant, so layers that already maintain a stats struct
// or a queue length expose it without any hot-path cost at all.
type instrument struct {
	name    string
	kind    Kind
	v       int64
	fn      func() int64
	hist    stats.Histogram
	series  []Point
	hseries []HistPoint
}

// Registry owns a simulation's instruments and sampler.
// Create one per kernel with New; wire it to layers before they construct
// their components (registration happens in constructors).
type Registry struct {
	k      *sim.Kernel
	byName map[string]*instrument
	order  []*instrument // registration order; deterministic across runs

	tick    sim.Time
	ev      *sim.Event
	lastAt  sim.Time
	samples int
}

// New returns an empty registry bound to the kernel and registers the
// kernel's own health gauges — events dispatched, live procs, and timer
// wheel occupancy — so every registry observes the substrate it runs on.
func New(k *sim.Kernel) *Registry {
	r := &Registry{
		k:      k,
		byName: make(map[string]*instrument),
		lastAt: -1,
	}
	r.CounterFunc("sim.kernel.events_dispatched", func() int64 { return int64(k.Events()) })
	r.GaugeFunc("sim.kernel.procs_live", func() int64 { return int64(k.Live()) })
	r.GaugeFunc("sim.kernel.pending_events", func() int64 { return int64(k.PendingEvents()) })
	return r
}

// Installer adapts New to the cluster.Config hook shape and starts the
// sampler at the given tick (0: register instruments, never sample).
func Installer(tick sim.Time) func(*sim.Kernel) *Registry {
	return func(k *sim.Kernel) *Registry {
		r := New(k)
		if tick > 0 {
			r.StartSampler(tick)
		}
		return r
	}
}

// register is the strict path: a duplicate name panics at register time,
// naming the conflict, so instrument names stay unique as layers grow.
func (r *Registry) register(name string, kind Kind, fn func() int64) *instrument {
	if r == nil {
		return nil
	}
	if prev, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q (already a %v)", name, prev.kind))
	}
	in := &instrument{name: name, kind: kind, fn: fn}
	r.byName[name] = in
	r.order = append(r.order, in)
	return in
}

// registerShared is the get-or-create path for instruments whose owning
// component can be constructed more than once per run under the same name
// — a redialed DAFS session on the same client node, one striped driver
// per client. The kind must match; a conflict panics like a duplicate.
func (r *Registry) registerShared(name string, kind Kind) *instrument {
	if r == nil {
		return nil
	}
	if prev, ok := r.byName[name]; ok {
		if prev.kind != kind {
			panic(fmt.Sprintf("metrics: shared registration of %q as %v conflicts with existing %v", name, kind, prev.kind))
		}
		return prev
	}
	in := &instrument{name: name, kind: kind}
	r.byName[name] = in
	r.order = append(r.order, in)
	return in
}

// Counter registers a push counter. Panics on a duplicate name.
func (r *Registry) Counter(name string) Counter {
	return Counter{r.register(name, KindCounter, nil)}
}

// Hist registers a log2 histogram. Panics on a duplicate name.
func (r *Registry) Hist(name string) Hist {
	return Hist{r.register(name, KindHist, nil)}
}

// CounterFunc registers a counter whose value is read from fn at each
// sampling instant — zero hot-path cost for layers that already count.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.register(name, KindCounter, fn)
}

// GaugeFunc registers a gauge read from fn at each sampling instant.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.register(name, KindGauge, fn)
}

// SharedCounter registers or re-attaches a push counter (see
// registerShared).
func (r *Registry) SharedCounter(name string) Counter {
	return Counter{r.registerShared(name, KindCounter)}
}

// SharedGauge registers or re-attaches a push gauge.
func (r *Registry) SharedGauge(name string) Gauge {
	return Gauge{r.registerShared(name, KindGauge)}
}

// SharedHist registers or re-attaches a histogram.
func (r *Registry) SharedHist(name string) Hist {
	return Hist{r.registerShared(name, KindHist)}
}

// Counter is a monotonic push counter; the zero value is a no-op.
type Counter struct{ in *instrument }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; not checked on the hot path).
func (c Counter) Add(n int64) {
	if c.in != nil {
		c.in.v += n
	}
}

// Gauge is an instantaneous level; the zero value is a no-op.
type Gauge struct{ in *instrument }

// Set replaces the level.
func (g Gauge) Set(v int64) {
	if g.in != nil {
		g.in.v = v
	}
}

// Add moves the level by d (negative to decrease).
func (g Gauge) Add(d int64) {
	if g.in != nil {
		g.in.v += d
	}
}

// Hist is a log2 histogram of observations; the zero value is a no-op.
type Hist struct{ in *instrument }

// Observe records one sample (a latency in ns, a size in bytes).
func (h Hist) Observe(v int64) {
	if h.in != nil {
		h.in.hist.Add(v)
	}
}

// Names returns every registered instrument name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Value returns the current value of a counter or gauge (func-backed
// instruments are evaluated now), or 0 if the name is unknown or a
// histogram.
func (r *Registry) Value(name string) int64 {
	if r == nil {
		return 0
	}
	in, ok := r.byName[name]
	if !ok || in.kind == KindHist {
		return 0
	}
	if in.fn != nil {
		return in.fn()
	}
	return in.v
}

// Series returns the sampled points of a counter or gauge (nil for
// histograms; use HistSeries). The slice is owned by the registry.
func (r *Registry) Series(name string) []Point {
	if r == nil {
		return nil
	}
	if in, ok := r.byName[name]; ok {
		return in.series
	}
	return nil
}

// HistSeries returns the sampled summaries of a histogram.
func (r *Registry) HistSeries(name string) []HistPoint {
	if r == nil {
		return nil
	}
	if in, ok := r.byName[name]; ok {
		return in.hseries
	}
	return nil
}
