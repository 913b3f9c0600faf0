package dafs

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/sim"
)

// The tests below guard the session's recycling of calls, slots and
// descriptors: each sets up a moment where a recycled object could carry
// one request's bytes into another's result.

// TestInlineReadsBeyondCreditsWaitedInReverse: with more inline reads in
// flight than the session has credits, every response sits collected in its
// call until the caller waits for it. Waiting in reverse issue order, each
// buffer must hold its own bytes; a second round runs on the calls the first
// gave back.
func TestInlineReadsBeyondCreditsWaitedInReverse(t *testing.T) {
	const flights, size = 20, 2048 // the default session has 8 credits
	r := newRig(1, nil)
	want := pattern(2*flights*size, 5)
	f, _ := r.store.Create("f")
	f.WriteAt(want, 0)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, err := c.Lookup(p, "f")
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		for round := 0; round < 2; round++ {
			bufs := make([][]byte, flights)
			ios := make([]*IO, flights)
			offs := make([]int, flights)
			for i := range ios {
				// Lengths differ, so a response copied into the wrong
				// buffer shows as a wrong count as well as wrong bytes.
				bufs[i] = make([]byte, size-i*37)
				offs[i] = (round*flights + i) * size
				if ios[i], err = c.StartRead(p, fh, int64(offs[i]), bufs[i]); err != nil {
					t.Errorf("round %d: start %d: %v", round, i, err)
					return
				}
			}
			for i := flights - 1; i >= 0; i-- {
				n, err := ios[i].Wait(p)
				if err != nil || n != len(bufs[i]) || !bytes.Equal(bufs[i], want[offs[i]:offs[i]+n]) {
					t.Errorf("round %d: read %d: n=%d err=%v, or its buffer holds another read's bytes", round, i, n, err)
				}
			}
		}
	})
}

// TestLateResponseAfterCallRecycled: a call's deadline fires while its
// response is inside dispatch, which has yielded charging the unmarshal and
// copy-out. The caller collects the timeout, which gives the call back, and
// redials; the replacement session takes over the collected calls, so its
// next request reuses the failed one's Call. The late response must be
// dropped, and the new call must return its own bytes. Sweeping the deadline
// across the response's arrival lands it inside the window.
func TestLateResponseAfterCallRecycled(t *testing.T) {
	const size = 8192 // a full inline read: the longest copy-out
	want := pattern(2*size, 11)
	// run reads the first size bytes under the deadline, then, if that
	// timed out, 512 bytes from the next size bytes on a redialed session.
	// It reports how long the first read took and whether it timed out.
	run := func(deadline sim.Time) (took sim.Time, timedOut bool) {
		r := newRig(1, nil)
		f, _ := r.store.Create("f")
		f.WriteAt(want, 0)
		r.k.Spawn("app", func(p *sim.Proc) {
			c, err := Dial(p, r.cNICs[0], r.srv, &Options{CallTimeout: deadline})
			if err != nil {
				t.Errorf("deadline %v: dial: %v", deadline, err)
				return
			}
			fh, _, err := c.Lookup(p, "f")
			if err != nil {
				t.Errorf("deadline %v: lookup: %v", deadline, err)
				return
			}
			t0 := p.Now()
			io, err := c.StartRead(p, fh, 0, make([]byte, size))
			if err != nil {
				t.Errorf("deadline %v: start: %v", deadline, err)
				return
			}
			n, err := io.Wait(p)
			took = p.Now() - t0
			switch {
			case errors.Is(err, ErrTimeout):
				timedOut = true
			case err != nil || n != size:
				t.Errorf("deadline %v: first read: n=%d err=%v", deadline, n, err)
				return
			default:
				return
			}
			nc, err := c.Redial(p)
			if err != nil {
				t.Errorf("deadline %v: redial: %v", deadline, err)
				return
			}
			// Short enough to beat the deadline the new session inherits.
			got := make([]byte, 512)
			if n, err := nc.Read(p, fh, size, got); err != nil || n != len(got) || !bytes.Equal(got, want[size:size+n]) {
				t.Errorf("deadline %v: read on the redialed session: n=%d err=%v, or it returned another read's bytes", deadline, n, err)
			}
		})
		if err := r.k.Run(); err != nil {
			t.Fatalf("deadline %v: %v", deadline, err)
		}
		return took, timedOut
	}
	took, _ := run(0)
	healthy, failed := 0, 0
	for d := took - 40*sim.Microsecond; d <= took; d += sim.Microsecond {
		if _, timedOut := run(d); timedOut {
			failed++
		} else {
			healthy++
		}
	}
	if healthy == 0 || failed == 0 {
		t.Fatalf("sweep up to %v saw %d healthy and %d timed-out runs: it does not straddle the deadline", took, healthy, failed)
	}
}
