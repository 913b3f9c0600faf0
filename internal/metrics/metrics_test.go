package metrics

import (
	"bytes"
	"strings"
	"testing"

	"dafsio/internal/sim"
)

// The registry-hygiene contract: a second strict registration of the same
// name panics at register time, naming the conflict.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New(sim.NewKernel())
	r.Counter("dafs.server.s0.requests")
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("duplicate registration did not panic")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, `"dafs.server.s0.requests"`) {
			t.Fatalf("panic %v does not name the conflicting metric", v)
		}
	}()
	r.Hist("dafs.server.s0.requests")
}

func TestSharedGetOrCreate(t *testing.T) {
	r := New(sim.NewKernel())
	a := r.SharedCounter("dafs.client.c0.redials")
	b := r.SharedCounter("dafs.client.c0.redials") // the redialed session
	a.Inc()
	b.Add(2)
	if got := r.Value("dafs.client.c0.redials"); got != 3 {
		t.Fatalf("shared counter = %d, want 3 (both handles must hit one instrument)", got)
	}
}

func TestSharedKindConflictPanics(t *testing.T) {
	r := New(sim.NewKernel())
	r.SharedCounter("x.y")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict on shared registration did not panic")
		}
	}()
	r.SharedGauge("x.y")
}

// A nil registry is the off switch: registration returns zero-value
// instruments and every method is a no-op.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.SharedGauge("b")
	h := r.Hist("c")
	c.Inc()
	g.Set(5)
	h.Observe(100)
	r.CounterFunc("d", func() int64 { return 1 })
	r.StartSampler(10)
	r.SampleNow()
	if r.Names() != nil || r.Samples() != 0 || r.Value("a") != 0 {
		t.Fatal("nil registry leaked state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil || buf.String() != "{}\n" {
		t.Fatalf("nil WriteJSON = %q, %v", buf.String(), err)
	}
}

func TestSamplerSeries(t *testing.T) {
	k := sim.NewKernel()
	r := New(k)
	c := r.Counter("work.done")
	h := r.Hist("work.ns")
	r.StartSampler(10)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			c.Inc()
			h.Observe(int64(100 * (i + 1)))
		}
		p.Wait(5) // end mid-tick at t=35
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r.SampleNow()
	r.SampleNow() // idempotent at the same instant

	s := r.Series("work.done")
	// Ticks at t=10..30 coincide with the worker's wakeups, and the
	// sampler's event was scheduled first, so each tick samples before
	// that instant's increment (FIFO at the same instant).
	want := []Point{{0, 0}, {10, 0}, {20, 1}, {30, 2}, {35, 3}}
	if len(s) != len(want) {
		t.Fatalf("series = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, s[i], want[i])
		}
	}
	if r.Samples() != 5 {
		t.Fatalf("Samples = %d, want 5", r.Samples())
	}
	hs := r.HistSeries("work.ns")
	if len(hs) != 5 || hs[4].N != 3 || hs[4].Max < 300 {
		t.Fatalf("hist series tail = %+v", hs[len(hs)-1])
	}
	// The kernel's own gauges ride the same sampler.
	if len(r.Series("sim.kernel.events_dispatched")) != 5 {
		t.Fatal("kernel gauge series missing")
	}
}

func TestStartSamplerTwicePanics(t *testing.T) {
	r := New(sim.NewKernel())
	r.StartSampler(10)
	defer func() {
		if recover() == nil {
			t.Fatal("second StartSampler did not panic")
		}
	}()
	r.StartSampler(10)
}

// Two identically seeded registries marshal to identical bytes.
func TestWriteJSONDeterministic(t *testing.T) {
	run := func() string {
		k := sim.NewKernel()
		r := New(k)
		c := r.Counter("a.ops")
		g := r.SharedGauge("b.depth")
		h := r.Hist("a.ns")
		r.StartSampler(7)
		k.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				p.Wait(3)
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(50 * i))
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		r.SampleNow()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("WriteJSON not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"a.ops"`) {
		t.Fatalf("export missing series:\n%s", a)
	}
}

// Metrics must not perturb the simulation: the same workload with and
// without a sampling registry sees identical virtual timings.
func TestSamplerDoesNotPerturbWorkload(t *testing.T) {
	run := func(withMetrics bool) (sim.Time, uint64) {
		k := sim.NewKernel()
		var r *Registry
		if withMetrics {
			r = New(k)
			r.StartSampler(5)
		}
		c := r.Counter("noise") // nil-safe when metrics are off
		ch := sim.NewChan[int](k, 1)
		k.Spawn("prod", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				p.Wait(3)
				ch.Send(p, i)
				c.Inc()
			}
			ch.Close()
		})
		var last sim.Time
		k.Spawn("cons", func(p *sim.Proc) {
			for {
				if _, ok := ch.Recv(p); !ok {
					return
				}
				p.Wait(2)
				last = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last, uint64(k.Now())
	}
	offT, offN := run(false)
	onT, onN := run(true)
	if offT != onT || offN != onN {
		t.Fatalf("metrics perturbed the run: off=(%v,%d) on=(%v,%d)", offT, offN, onT, onN)
	}
}
