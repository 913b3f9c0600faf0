package dafs

import (
	"errors"
	"testing"

	"dafsio/internal/sim"
)

// A server fenced at epoch e rejects connects presenting an older epoch
// and admits equal or newer ones; the admitted client observes the
// server's current epoch through the connection phase.
func TestStaleEpochRejectedAtConnect(t *testing.T) {
	r := newRig(1)
	r.srv.SetEpoch(2)
	r.srv.SetFence(2)
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := Dial(p, r.cNICs[0], r.srv, &Options{Epoch: 1}); !errors.Is(err, ErrStaleEpoch) {
			t.Errorf("stale dial: err = %v, want ErrStaleEpoch", err)
		}
		c, err := Dial(p, r.cNICs[0], r.srv, &Options{Epoch: 2})
		if err != nil {
			t.Errorf("current-epoch dial: %v", err)
			return
		}
		if c.Epoch() != 2 || c.ServerEpoch() != 2 {
			t.Errorf("epochs: client %d server %d, want 2/2", c.Epoch(), c.ServerEpoch())
		}
		// Epoch bumps after establishment never disturb the session: the
		// fence is connect-time-only.
		r.srv.SetEpoch(3)
		r.srv.SetFence(3)
		if _, _, err := c.Create(p, "f"); err != nil {
			t.Errorf("established session rejected after fence bump: %v", err)
		}
		if _, err := Dial(p, r.cNICs[0], r.srv, &Options{Epoch: 2}); !errors.Is(err, ErrStaleEpoch) {
			t.Errorf("dial after fence bump: err = %v, want ErrStaleEpoch", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// An unfenced server (the build-time membership) admits unversioned
// clients — the pre-elastic compatibility case every existing test and
// experiment relies on.
func TestUnfencedServerAdmitsUnversionedClients(t *testing.T) {
	r := newRig(1)
	r.srv.SetEpoch(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		if c.Epoch() != 0 || c.ServerEpoch() != 1 {
			t.Errorf("epochs: client %d server %d, want 0/1", c.Epoch(), c.ServerEpoch())
		}
	})
}

// Draining refuses new sessions but keeps established ones servicing —
// the graceful-removal half of elastic membership.
func TestDrainRefusesNewSessionsKeepsOld(t *testing.T) {
	r := newRig(1)
	r.k.Spawn("client", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, nil)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		r.srv.Drain()
		if !r.srv.Draining() {
			t.Error("Draining() false after Drain")
		}
		// Established session still works end to end.
		data := pattern(4096, 7)
		if io, err := c.StartWrite(p, fh, 0, data); err != nil {
			t.Errorf("write on drained server: %v", err)
		} else if n, err := io.Wait(p); err != nil || n != len(data) {
			t.Errorf("write wait: n=%d err=%v", n, err)
		}
		got := make([]byte, len(data))
		if io, err := c.StartRead(p, fh, 0, got); err != nil {
			t.Errorf("read on drained server: %v", err)
		} else if n, err := io.Wait(p); err != nil || n != len(data) {
			t.Errorf("read wait: n=%d err=%v", n, err)
		}
		// New sessions are refused.
		if _, err := Dial(p, r.cNICs[0], r.srv, nil); !errors.Is(err, ErrDraining) {
			t.Errorf("dial to draining server: err = %v, want ErrDraining", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}
