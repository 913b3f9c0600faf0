package cluster

import (
	"bytes"
	"errors"
	"testing"

	"dafsio/internal/dafs"
	"dafsio/internal/sim"
)

// AddServer mid-run provisions a reachable server, bumps the epoch, and
// fences the newcomer so only epoch-aware clients connect.
func TestAddServerMidRun(t *testing.T) {
	c := New(Config{Clients: 1, Servers: 2, DAFS: true})
	if c.epoch != 1 {
		t.Fatalf("build epoch %d, want 1", c.epoch)
	}
	c.K.Spawn("client0.app", func(p *sim.Proc) {
		// A pre-join session, dialed at epoch 1.
		old, err := c.DialDAFSServer(p, 0, 0, nil)
		if err != nil {
			t.Errorf("dial server 0: %v", err)
			return
		}

		s, epoch := c.AddServer()
		if s != 2 || epoch != 2 || c.epoch != 2 {
			t.Errorf("AddServer = (%d, %d), cluster epoch %d; want (2, 2, 2)", s, epoch, c.epoch)
		}
		if got := c.ServerNodes[s].Name; got != "server2" {
			t.Errorf("new server named %q", got)
		}

		// A client still presenting the pre-join epoch is fenced out.
		if _, err := c.DialDAFSServer(p, 0, s, &dafs.Options{Epoch: 1}); !errors.Is(err, dafs.ErrStaleEpoch) {
			t.Errorf("stale dial to joiner: err = %v, want ErrStaleEpoch", err)
		}
		// The default dial presents the current epoch and is admitted by
		// the joiner's fence at 2; the new server does real I/O.
		nc, err := c.DialDAFSServer(p, 0, s, nil)
		if err != nil {
			t.Errorf("dial joiner: %v", err)
			return
		}
		fh, _, err := nc.Create(p, "joined")
		if err != nil {
			t.Errorf("create on joiner: %v", err)
			return
		}
		data := []byte("bytes on the new server")
		if io, err := nc.StartWrite(p, fh, 0, data); err != nil {
			t.Errorf("write on joiner: %v", err)
		} else if _, err := io.Wait(p); err != nil {
			t.Errorf("write wait: %v", err)
		}
		got := make([]byte, len(data))
		if io, err := nc.StartRead(p, fh, 0, got); err != nil {
			t.Errorf("read on joiner: %v", err)
		} else if n, err := io.Wait(p); err != nil || !bytes.Equal(got[:n], data) {
			t.Errorf("read back: n=%d err=%v", n, err)
		}
		// Established pre-join sessions drain naturally: still serviceable.
		if _, _, err := old.Create(p, "pre-join"); err != nil {
			t.Errorf("pre-join session broken by the join: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// NFS puts an export on every server node; a client can mount them all
// and each mount reaches a distinct store.
func TestNFSAllMultiMount(t *testing.T) {
	c := New(Config{Clients: 1, Servers: 3, NFS: true})
	if len(c.NFSSrvs) != 3 || c.NFSSrv != c.NFSSrvs[0] {
		t.Fatalf("NFSSrvs = %d, want 3 with server 0 aliased", len(c.NFSSrvs))
	}
	c.K.Spawn("client0.app", func(p *sim.Proc) {
		mounts, err := c.MountNFSAll(p, 0, nil)
		if err != nil {
			t.Errorf("mount all: %v", err)
			return
		}
		for s, m := range mounts {
			fh, _, err := m.Create(p, "obj")
			if err != nil {
				t.Errorf("create via mount %d: %v", s, err)
				return
			}
			data := []byte{byte('a' + s)}
			if io, err := m.StartWrite(p, fh, 0, data); err != nil {
				t.Errorf("write via mount %d: %v", s, err)
			} else if _, err := io.Wait(p); err != nil {
				t.Errorf("write wait %d: %v", s, err)
			}
		}
		// Same name on every mount, different stores: each holds its own.
		for s := range mounts {
			f, err := c.Stores[s].Lookup("obj")
			if err != nil {
				t.Errorf("store %d: %v", s, err)
				continue
			}
			b := make([]byte, 1)
			if n := f.ReadAt(b, 0); n != 1 || b[0] != byte('a'+s) {
				t.Errorf("store %d: got %q", s, b[:n])
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
