package dafs

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/sim"
)

// TestCloseAfterFailureReturnsFailErr is the regression test for the
// close-after-failure bug: Close on a failed session must surface the
// original session error (wrapped so errors.Is matches ErrSession), not
// attempt a disconnect round trip, and a second failure must not
// overwrite the first.
func TestCloseAfterFailureReturnsFailErr(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		first := errors.New("injected: first failure")
		c.fail(first)
		err := c.Close(p)
		if !errors.Is(err, ErrSession) {
			t.Errorf("Close after fail: err=%v, want ErrSession", err)
		}
		if !errors.Is(err, first) {
			t.Errorf("Close after fail: err=%v, want the original cause %v", err, first)
		}
		// A later failure (e.g. a straggling timer) must not clobber the
		// recorded cause.
		c.fail(errors.New("injected: second failure"))
		if err := c.Close(p); !errors.Is(err, first) {
			t.Errorf("Close after second fail: err=%v, want first cause kept", err)
		}
		if !c.Broken() || !errors.Is(c.FailErr(), first) {
			t.Errorf("Broken=%v FailErr=%v, want broken with first cause", c.Broken(), c.FailErr())
		}
	})
}

// TestCallTimeoutFailsSession: with Options.CallTimeout set and the server
// silently gone (crashed node, dead NIC — fail-stop), an in-flight call
// must fail the whole session after exactly the deadline, with an error
// matching both ErrTimeout and ErrSession.
func TestCallTimeoutFailsSession(t *testing.T) {
	r := newRig(1)
	const deadline = 3 * sim.Millisecond
	r.k.Spawn("app", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, &Options{CallTimeout: deadline})
		if err != nil {
			t.Error(err)
			return
		}
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		// Fail-stop the server: NIC dead (requests vanish), server crashed.
		r.srv.NIC().Kill()
		r.srv.Crash()
		t0 := p.Now()
		io, err := c.StartWrite(p, fh, 0, pattern(4096, 1))
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		_, err = io.Wait(p)
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrSession) {
			t.Errorf("err=%v, want ErrTimeout wrapped in ErrSession", err)
		}
		// The deadline is armed when the request hits the wire, a few
		// microseconds of marshal/copy after t0.
		if waited := p.Now() - t0; waited < deadline || waited > deadline+100*sim.Microsecond {
			t.Errorf("call failed after %v, want the %v deadline (plus issue cost)", waited, deadline)
		}
		// The deadline error is the sticky session error.
		if err := c.Close(p); !errors.Is(err, ErrTimeout) {
			t.Errorf("Close: %v, want the timeout kept as the session cause", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRedialToCrashedServerFailsFast: Redial against a crashed server is
// rejected at accept (ErrSession) instead of hanging on a dead NIC.
func TestRedialToCrashedServerFailsFast(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		c.fail(errors.New("injected"))
		r.srv.Crash()
		if _, err := c.Redial(p); !errors.Is(err, ErrSession) {
			t.Errorf("redial to crashed server: err=%v, want ErrSession", err)
		}
	})
}

// TestRedialRestoresServiceAndHandles: after a session failure, Redial
// yields a working session on the same NIC/server pair with the same
// options — and file handles issued by the old session stay valid,
// because FHs are store-level and survive reconnection.
func TestRedialRestoresServiceAndHandles(t *testing.T) {
	r := newRig(1)
	const deadline = 5 * sim.Millisecond
	r.k.Spawn("app", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, &Options{CallTimeout: deadline})
		if err != nil {
			t.Error(err)
			return
		}
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		want := pattern(4096, 7)
		if _, err := c.Write(p, fh, 0, want); err != nil {
			t.Error(err)
			return
		}
		c.fail(errors.New("injected transport failure"))
		nc, err := c.Redial(p)
		if err != nil {
			t.Errorf("redial: %v", err)
			return
		}
		if nc.opts.CallTimeout != deadline {
			t.Errorf("redial dropped options: CallTimeout=%v", nc.opts.CallTimeout)
		}
		// The pre-failure handle works on the new session.
		got := make([]byte, len(want))
		if _, err := nc.Read(p, fh, 0, got); err != nil {
			t.Errorf("read with old FH after redial: %v", err)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %d want %d", i, got[i], want[i])
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRedialAfterRestartSucceeds: a crash is no longer permanent. After
// fail-stop (NIC dead, server crashed) the in-flight call times out and a
// redial is rejected; after Restart (NIC revived, empty session table,
// store intact) the redial succeeds, the pre-crash FH still works — FHs
// are store-level — and the pre-crash data reads back. The old, broken
// session stays broken: its state predates the restart.
func TestRedialAfterRestartSucceeds(t *testing.T) {
	r := newRig(1)
	const deadline = 3 * sim.Millisecond
	r.k.Spawn("app", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, &Options{CallTimeout: deadline})
		if err != nil {
			t.Error(err)
			return
		}
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		want := pattern(4096, 9)
		if _, err := c.Write(p, fh, 0, want); err != nil {
			t.Error(err)
			return
		}
		r.srv.NIC().Kill()
		r.srv.Crash()
		if _, err := c.Read(p, fh, 0, make([]byte, 16)); !errors.Is(err, ErrSession) {
			t.Errorf("read on crashed server: err=%v, want ErrSession", err)
			return
		}
		if _, err := c.Redial(p); !errors.Is(err, ErrSession) {
			t.Errorf("redial while down: err=%v, want ErrSession", err)
			return
		}
		r.srv.NIC().Revive()
		r.srv.Restart()
		nc, err := c.Redial(p)
		if err != nil {
			t.Errorf("redial after restart: %v", err)
			return
		}
		got := make([]byte, len(want))
		if _, err := nc.Read(p, fh, 0, got); err != nil {
			t.Errorf("read with pre-crash FH after restart: %v", err)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %d want %d (store must survive the restart)", i, got[i], want[i])
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryPolicyBackoff: capped exponential doubling, deterministic (no
// jitter — the whole simulation shares one clock).
func TestRetryPolicyBackoff(t *testing.T) {
	rp := RetryPolicy{Base: 100 * sim.Microsecond, Max: 800 * sim.Microsecond, Attempts: 6}
	want := []sim.Time{
		100 * sim.Microsecond,
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		800 * sim.Microsecond,
		800 * sim.Microsecond, // capped
		800 * sim.Microsecond,
	}
	for i, w := range want {
		if got := rp.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
	uncapped := RetryPolicy{Base: sim.Microsecond, Attempts: 3}
	if got := uncapped.Backoff(10); got != 1024*sim.Microsecond {
		t.Errorf("uncapped Backoff(10) = %v, want 1024us", got)
	}
}

// TestDeadlineDuringResponseUnmarshal: a healthy call whose deadline fires
// while dispatch is parked charging the response's unmarshal and copy-out
// cost is failed by the deadline (credit released, call completed) and the
// response, now late, is dropped. Dispatch used to finish it regardless and
// release the credit a second time ("sim: bad release count"). Eight 4 KB
// inline reads in flight keep dispatch parked back to back, so sweeping the
// deadline across the responses' arrival lands it inside the window.
func TestDeadlineDuringResponseUnmarshal(t *testing.T) {
	const flights, size = 8, 4096
	want := pattern(flights*size, 3)
	// run issues the eight reads on a fresh session with the given deadline
	// and reports when the first and the last completed and how many timed
	// out; any other outcome fails the test.
	run := func(deadline sim.Time) (first, last sim.Time, timeouts int) {
		r := newRig(1)
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
			bufs := make([][]byte, flights)
			ios := make([]*IO, flights)
			for i := range ios {
				bufs[i] = make([]byte, size)
				if ios[i], err = c.StartRead(p, fh, int64(i*size), bufs[i]); err != nil {
					// A deadline that fires while later reads are still
					// being issued closes the session under them.
					if !errors.Is(err, ErrTimeout) {
						t.Errorf("deadline %v: start %d: %v", deadline, i, err)
					}
					timeouts++
				}
			}
			for i, io := range ios {
				if io == nil {
					continue
				}
				n, err := io.Wait(p)
				switch {
				case errors.Is(err, ErrTimeout):
					timeouts++
				case err != nil || n != size || !bytes.Equal(bufs[i], want[i*size:(i+1)*size]):
					t.Errorf("deadline %v: read %d: n=%d err=%v", deadline, i, n, err)
				}
				if i == 0 {
					first = p.Now() - t0
				}
			}
			last = p.Now() - t0
			// Every credit is back exactly once: a healthy session takes
			// eight more calls, a failed one reports its cause.
			if timeouts == 0 {
				for i := 0; i < flights; i++ {
					io, err := c.StartGetattr(p, fh)
					if _, err := await(p, io, err); err != nil {
						t.Errorf("deadline %v: getattr after the reads: %v", deadline, err)
					}
				}
			} else if err := c.Close(p); !errors.Is(err, ErrTimeout) {
				t.Errorf("deadline %v: Close: %v, want the timeout", deadline, err)
			}
		})
		if err := r.k.Run(); err != nil {
			t.Fatalf("deadline %v: %v", deadline, err)
		}
		return first, last, timeouts
	}
	first, last, _ := run(0)
	healthy, failed := 0, 0
	for d := first - 20*sim.Microsecond; d <= last+5*sim.Microsecond; d += sim.Microsecond {
		if _, _, timeouts := run(d); timeouts > 0 {
			failed++
		} else {
			healthy++
		}
	}
	if healthy == 0 || failed == 0 {
		t.Fatalf("sweep from %v to %v saw %d healthy and %d timed-out runs: it does not straddle the deadline", first, last, healthy, failed)
	}
}
