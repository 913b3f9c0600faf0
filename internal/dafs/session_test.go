package dafs

import (
	"testing"

	"dafsio/internal/sim"
)

// TestOpenSessionsParkNothing: a session holds no process between its
// completions. One client dials a session to the server, then 31 more,
// and leaves them all open; once each round has settled, the kernel's
// live procs and its worker goroutines read the same after 32 sessions as
// after 1. Each session's client dispatch, and the server's, are notify
// handlers whose drain procs end with their bursts; a daemon parked per
// session would add one proc and one goroutine per dial. The goroutines
// are the kernel's own count, so no other test's goroutine can move it.
func TestOpenSessionsParkNothing(t *testing.T) {
	r := newRig(1)
	var live, goroutines [2]int
	r.k.Spawn("app", func(p *sim.Proc) {
		for round, n := range []int{1, 31} {
			for i := range n {
				if _, err := Dial(p, r.cNICs[0], r.srv, nil); err != nil {
					t.Errorf("dial %d: %v", i, err)
					return
				}
			}
			p.Wait(sim.Millisecond) // the last send completions drain
			live[round], goroutines[round] = r.k.Live(), r.k.Goroutines()
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if live[1] != live[0] {
		t.Errorf("%d procs live with 32 sessions open, %d with 1", live[1], live[0])
	}
	if goroutines[1] != goroutines[0] {
		t.Errorf("%d goroutines with 32 sessions open, %d with 1", goroutines[1], goroutines[0])
	}
}

// With metrics off a session builds no instrument name.
func TestClientMetricsOffAllocateNothing(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { newClientMetrics(nil, "client0") }); n != 0 {
		t.Fatalf("newClientMetrics with no registry: %v allocations, want 0", n)
	}
}
