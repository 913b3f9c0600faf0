package dafs

import (
	"errors"
	"testing"

	"dafsio/internal/sim"
)

// TestFailedDialUnregisters is the regression test for the dial-path
// registration leak: Dial registers the request and response buffer pools
// before the protocol CONNECT, and every error path after that point must
// deregister them — a failed dial used to leave both windows pinned on the
// client NIC for the rest of the run.
func TestFailedDialUnregisters(t *testing.T) {
	r := newRig(1)
	r.k.Spawn("app", func(p *sim.Proc) {
		// The server NIC is dead but the server is not crashed: accept
		// succeeds, so Dial gets as far as registering its buffers and
		// issuing CONNECT, which times out into the wire silence.
		r.srv.NIC().Kill()
		nic := r.cNICs[0]
		before := nic.Regions()
		_, err := Dial(p, nic, r.srv, &Options{CallTimeout: 3 * sim.Millisecond})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("dial into dead wire: err=%v, want ErrTimeout", err)
		}
		if got := nic.Regions(); got != before {
			t.Errorf("failed dial left %d region(s) pinned (had %d, now %d)",
				got-before, before, got)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnregisters: a clean Close gives back every registration the
// session pinned: the client's pair once the DISCONNECT reply is in, and
// the server's pair once that reply has left. Both used to stay pinned for
// the rest of the run.
func TestCloseUnregisters(t *testing.T) {
	r := newRig(1)
	cNIC, sNIC := r.cNICs[0], r.srv.NIC()
	cBefore, sBefore := cNIC.Regions(), sNIC.Regions()
	r.k.Spawn("app", func(p *sim.Proc) {
		c, err := Dial(p, cNIC, r.srv, nil)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if got := cNIC.Regions(); got != cBefore {
			t.Errorf("client NIC holds %d region(s) after Close, had %d before Dial", got, cBefore)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sNIC.Regions(); got != sBefore {
		t.Errorf("server NIC holds %d region(s) after the session closed, had %d before", got, sBefore)
	}
}

// TestRestartReleasesDroppedSessions: Restart drops every pre-crash
// session, and the power cycle must unpin the two message-buffer regions
// each one held on the server NIC. They used to stay pinned for the rest of
// the run: after the restart, and after a redialed session closed cleanly.
func TestRestartReleasesDroppedSessions(t *testing.T) {
	r := newRig(1)
	sNIC := r.srv.NIC()
	before := sNIC.Regions()
	r.k.Spawn("app", func(p *sim.Proc) {
		c, err := Dial(p, r.cNICs[0], r.srv, nil)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		sNIC.Kill()
		r.srv.Crash()
		sNIC.Revive()
		r.srv.Restart()
		if got := sNIC.Regions(); got != before {
			t.Errorf("server NIC holds %d region(s) after Restart, had %d before the session", got, before)
		}
		nc, err := c.Redial(p)
		if err != nil {
			t.Errorf("redial: %v", err)
			return
		}
		if err := nc.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sNIC.Regions(); got != before {
		t.Errorf("server NIC holds %d region(s) after the redialed session closed, had %d before", got, before)
	}
}

// TestRedialDropsOldSessionRegistrations: Redial pins a fresh pair of
// message-buffer regions for the replacement session and must tear down
// the dead session's pair — otherwise every failover leaks two pinned
// windows on the client NIC.
func TestRedialDropsOldSessionRegistrations(t *testing.T) {
	r := newRig(1)
	r.store.Create("f")
	r.run(t, func(p *sim.Proc, c *Client) {
		nic := c.NIC()
		live := nic.Regions()
		c.fail(errors.New("injected transport failure"))
		nc, err := c.Redial(p)
		if err != nil {
			t.Errorf("redial: %v", err)
			return
		}
		if got := nic.Regions(); got != live {
			t.Errorf("redial changed live regions from %d to %d: the old session's pair must be dropped", live, got)
		}
		// The replacement session's registrations are the live ones.
		fh, _, err := nc.Lookup(p, "f")
		if err != nil {
			t.Errorf("lookup on redialed session: %v", err)
			return
		}
		if _, err := nc.Write(p, fh, 0, pattern(1024, 9)); err != nil {
			t.Errorf("write on redialed session: %v", err)
		}
	})
}
