package mpiio

import (
	"bytes"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// Striped NFS over a multi-mount pool: round trip, placement (each server
// holds its own stripe object), size inversion, and delete.
func TestStripedNFSRoundTrip(t *testing.T) {
	const servers, stripe = 3, 4 << 10
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, NFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		mounts, err := c.MountNFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedNFSDriver(mounts, layout.Striping{StripeSize: stripe, Width: servers})
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		data := pattern(10*stripe + 513)
		if n, err := f.WriteAt(p, 0, data); err != nil || n != len(data) {
			t.Errorf("write: n=%d err=%v", n, err)
			return
		}
		got := make([]byte, len(data))
		if n, err := f.ReadAt(p, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("read-back: n=%d err=%v", n, err)
			return
		}
		if sz, err := f.GetSize(p); err != nil || sz != int64(len(data)) {
			t.Errorf("size = %d, %v; want %d", sz, err, len(data))
		}
		// Placement: every server store holds exactly its stripes.
		for s := 0; s < servers; s++ {
			obj, err := c.Stores[s].Lookup("s")
			if err != nil {
				t.Errorf("server %d object: %v", s, err)
				continue
			}
			b := make([]byte, stripe)
			obj.ReadAt(b, 0)
			if !bytes.Equal(b, data[s*stripe:(s+1)*stripe]) {
				t.Errorf("server %d holds the wrong stripe", s)
			}
		}
		f.Close(p)
		if err := drv.Delete(p, "s"); err != nil {
			t.Errorf("delete: %v", err)
		}
		for s := 0; s < servers; s++ {
			if _, err := c.Stores[s].Lookup("s"); err == nil {
				t.Errorf("server %d object survived delete", s)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
