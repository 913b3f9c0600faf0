package dafs

import (
	"errors"
	"testing"

	"dafsio/internal/sim"
)

// TestSessionFailureFailsPendingCalls injects a transport failure into a
// session with calls in flight: every pending call must complete with
// ErrSession, credits must be recovered, and later operations must be
// rejected with the same failure.
func TestSessionFailureFailsPendingCalls(t *testing.T) {
	r := newRig(1)
	r.k.Spawn("app", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, nil)
		if err != nil {
			t.Error(err)
			return
		}
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		// Start several writes, then fail the session before collecting.
		var ios []*IO
		for i := 0; i < 3; i++ {
			io, err := c.StartWrite(p, fh, int64(i)*4096, pattern(4096, byte(i)))
			if err != nil {
				t.Error(err)
				return
			}
			ios = append(ios, io)
		}
		c.fail(errors.New("injected transport failure"))
		for i, io := range ios {
			if _, err := io.Wait(p); !errors.Is(err, ErrSession) {
				t.Errorf("pending call %d: err=%v, want session failure", i, err)
			}
		}
		// Credits must all be back (otherwise this would leak).
		if c.credits.InUse() != 0 {
			t.Errorf("credits leaked: %d in use", c.credits.InUse())
		}
		// New calls are rejected with the sticky failure.
		if _, err := c.Write(p, fh, 0, []byte("x")); !errors.Is(err, ErrSession) {
			t.Errorf("post-failure call: %v", err)
		}
		if _, _, err := c.Lookup(p, "f"); !errors.Is(err, ErrSession) {
			t.Errorf("post-failure lookup: %v", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFailureIsIsolatedPerSession: one session's failure must not disturb
// another session from the same or another client.
func TestFailureIsIsolatedPerSession(t *testing.T) {
	r := newRig(2)
	r.store.Create("shared")
	broken := sim.NewFuture[struct{}](r.k)
	r.k.Spawn("victim", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, nil)
		if err != nil {
			t.Error(err)
			return
		}
		c.fail(errors.New("injected"))
		broken.Set(struct{}{})
	})
	r.k.Spawn("survivor", func(p *sim.Proc) {
		broken.Get(p)
		c, err := Dial(p, r.cNICs[1], r.srv, nil)
		if err != nil {
			t.Error(err)
			return
		}
		fh, _, err := c.Lookup(p, "shared")
		if err != nil {
			t.Errorf("survivor lookup: %v", err)
			return
		}
		if _, err := c.Write(p, fh, 0, pattern(1000, 1)); err != nil {
			t.Errorf("survivor write: %v", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectOpBadClientRegion: the client validates direct-op regions
// before anything reaches the wire.
func TestDirectOpBadClientRegion(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "f")
		reg := c.NIC().Register(p, make([]byte, 100))
		if _, err := c.ReadDirect(p, fh, 0, reg, 50, 100); err != ErrInval {
			t.Errorf("out-of-bounds direct: %v", err)
		}
		if _, err := c.WriteDirect(p, fh, 0, reg, -1, 10); err != ErrInval {
			t.Errorf("negative offset direct: %v", err)
		}
	})
}

// TestServerSurvivesRequestStorm: more concurrent requests than workers
// and credits, across sessions, all complete.
func TestServerSurvivesRequestStorm(t *testing.T) {
	const nclients = 4
	r := newRig(nclients)
	r.store.Create("f")
	for i := 0; i < nclients; i++ {
		nic := r.cNICs[i]
		i := i
		r.k.Spawn("storm", func(p *sim.Proc) {
			c, err := Dial(p, nic, r.srv, nil)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			fh, _, err := c.Lookup(p, "f")
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
				return
			}
			var ios []*IO
			for j := 0; j < 32; j++ {
				io, err := c.StartWrite(p, fh, int64(i*32+j)*512, pattern(512, byte(j)))
				if err != nil {
					t.Errorf("start %d/%d: %v", i, j, err)
					return
				}
				ios = append(ios, io)
			}
			for j, io := range ios {
				if n, err := io.Wait(p); err != nil || n != 512 {
					t.Errorf("wait %d/%d: n=%d err=%v", i, j, n, err)
				}
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	f, _ := r.store.Lookup("f")
	if f.Size() != nclients*32*512 {
		t.Fatalf("size %d", f.Size())
	}
	if got := r.srv.Stats().Requests; got < nclients*32 {
		t.Fatalf("requests %d", got)
	}
}
