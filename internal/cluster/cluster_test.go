package cluster

import (
	"testing"

	"dafsio/internal/sim"
)

func TestDAFSOnlyCluster(t *testing.T) {
	c := New(Config{Clients: 2, DAFS: true})
	if c.DAFSSrv == nil || c.NFSSrv != nil || c.World != nil {
		t.Fatal("wrong servers configured")
	}
	if len(c.NICs) != 2 || len(c.Stacks) != 0 {
		t.Fatalf("nics=%d stacks=%d", len(c.NICs), len(c.Stacks))
	}
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		cl, err := c.DialDAFS(p, i, nil)
		if err != nil {
			t.Errorf("dial %d: %v", i, err)
			return
		}
		cl.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNFSOnlyCluster(t *testing.T) {
	c := New(Config{Clients: 1, NFS: true})
	if c.NFSSrv == nil || c.DAFSSrv != nil {
		t.Fatal("wrong servers configured")
	}
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		if _, err := c.MountNFS(p, i, nil); err != nil {
			t.Errorf("mount: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCombinedClusterWithMPI(t *testing.T) {
	c := New(Config{Clients: 3, DAFS: true, NFS: true, MPI: true})
	if c.World == nil || c.World.Rank(0).Size() != 3 {
		t.Fatal("MPI world missing")
	}
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		// Both transports plus an MPI barrier on the same hosts.
		if _, err := c.DialDAFS(p, i, nil); err != nil {
			t.Errorf("dial: %v", err)
		}
		if _, err := c.MountNFS(p, i, nil); err != nil {
			t.Errorf("mount: %v", err)
		}
		c.World.Rank(i).Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMisconfiguredDialsFail(t *testing.T) {
	c := New(Config{Clients: 1, NFS: true})
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		if _, err := c.DialDAFS(p, i, nil); err == nil {
			t.Error("DAFS dial succeeded without a DAFS server")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(Config{Clients: 1, DAFS: true})
	err = c2.SpawnClients(func(p *sim.Proc, i int) {
		if _, err := c2.MountNFS(p, i, nil); err == nil {
			t.Error("NFS mount succeeded without an NFS server")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServerDisk(t *testing.T) {
	c := New(Config{Clients: 1, DAFS: true, ServerDisk: true})
	if c.Disk == nil {
		t.Fatal("no disk configured")
	}
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		cl, err := c.DialDAFS(p, i, nil)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		fh, _, err := cl.Create(p, "f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		cl.Write(p, fh, 0, make([]byte, 4096))
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Disk.BusyTime() == 0 {
		t.Fatal("disk never accessed")
	}
}

func TestZeroClientsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for zero clients")
		}
	}()
	New(Config{Clients: 0})
}
