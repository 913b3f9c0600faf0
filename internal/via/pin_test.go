package via

import (
	"testing"

	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// The NIC's pin-down cache: a hit is the same region and costs no CPU; a
// longer buffer at a cached address replaces its entry; a region
// deregistered elsewhere is never handed out; the 65th distinct buffer
// evicts the first; and with RegCache off every Pin and Unpin pays.
func TestPinCache(t *testing.T) {
	prof := model.CLAN1998()
	p2 := newPair(prof)
	n := p2.nicA
	cost := func(f func()) sim.Time {
		t0 := n.Node.CPU.BusyTime()
		f()
		return n.Node.CPU.BusyTime() - t0
	}
	p2.k.Spawn("p", func(p *sim.Proc) {
		base := n.Regions()
		buf := make([]byte, 32<<10, 64<<10)
		r := n.Pin(p, buf)
		n.Unpin(p, r)
		for _, b := range [][]byte{buf, buf[:4096]} {
			var got *Region
			if c := cost(func() { got = n.Pin(p, b); n.Unpin(p, got) }); got != r || c != 0 {
				t.Errorf("hit on %d bytes: region %p (want %p), %v of CPU (want 0)", len(b), got, r, c)
			}
		}

		long := buf[:cap(buf)]
		var r2 *Region
		c := cost(func() { r2 = n.Pin(p, long) })
		if want := prof.MemDeregCost + prof.RegCost(len(long)); r2 == r || r.Valid() || c != want {
			t.Errorf("longer buffer: same region %v, old still valid %v, %v of CPU (want %v)", r2 == r, r.Valid(), c, want)
		}
		if got := n.Regions() - base; got != 1 {
			t.Errorf("after the longer buffer: %d regions pinned, want 1", got)
		}

		n.Deregister(p, r2)
		first := n.Pin(p, long)
		if first == r2 || !first.Valid() {
			t.Errorf("a region deregistered elsewhere was handed out again")
		}
		for i := 1; i < pinCap; i++ {
			n.Pin(p, make([]byte, 8192))
		}
		if got := n.Regions() - base; got != pinCap {
			t.Errorf("%d distinct buffers pinned %d regions", pinCap, got)
			return
		}
		c = cost(func() { n.Pin(p, make([]byte, 8192)) })
		if got := n.Regions() - base; got != pinCap || first.Valid() || c != prof.MemDeregCost+prof.RegCost(8192) {
			t.Errorf("buffer %d: %d regions pinned (want %d), first still valid %v, %v of CPU (want %v)",
				pinCap+1, got, pinCap, first.Valid(), c, prof.MemDeregCost+prof.RegCost(8192))
		}

		n.RegCache = false
		for range 2 {
			var r *Region
			if c := cost(func() { r = n.Pin(p, long) }); c != prof.RegCost(len(long)) {
				t.Errorf("uncached Pin: %v of CPU, want %v", c, prof.RegCost(len(long)))
			}
			if c := cost(func() { n.Unpin(p, r) }); c != prof.MemDeregCost || r.Valid() {
				t.Errorf("uncached Unpin: %v of CPU (want %v), still valid %v", c, prof.MemDeregCost, r.Valid())
			}
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}
