package dafs

import (
	"errors"
	"testing"

	"dafsio/internal/sim"
)

// A server fenced at epoch e rejects connects presenting an older epoch
// and admits equal or newer ones.
func TestStaleEpochRejectedAtConnect(t *testing.T) {
	r := newRig(1)
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
		if c.opts.Epoch != 2 {
			t.Errorf("client epoch %d, want 2", c.opts.Epoch)
		}
		// Epoch bumps after establishment never disturb the session: the
		// fence is connect-time-only.
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
	r.run(t, func(p *sim.Proc, c *Client) {
		if c.opts.Epoch != 0 {
			t.Errorf("client epoch %d, want 0", c.opts.Epoch)
		}
	})
}
