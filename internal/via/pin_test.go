package via

import (
	"testing"

	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// The NIC's pin-down cache, every Pin given back by Unpin: a hit is the
// same region and costs no CPU, and a buffer inside an entry's is a hit
// at its offset into it; a longer buffer at a cached address replaces its
// entry; a region deregistered elsewhere is never handed out; the 65th
// distinct buffer evicts the oldest entry no one uses and never one in
// use; with every entry in use a miss stays outside the cache and its
// Unpin deregisters it; a longer buffer at the address of an entry in
// use, a covered hit's included, leaves that entry valid until its last
// Unpin; and with RegCache off every Pin and Unpin pays.
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
		// pin is Pin of a buffer no entry holds further in: it starts its
		// region.
		pin := func(b []byte) *Region {
			r, off := n.Pin(p, b)
			if off != 0 {
				t.Errorf("Pin of %d bytes at an entry's start: offset %d, want 0", len(b), off)
			}
			return r
		}
		base := n.Regions()
		buf := make([]byte, 32<<10, 64<<10)
		r := pin(buf)
		n.Unpin(p, r)
		for _, b := range [][]byte{buf, buf[:4096]} {
			var got *Region
			if c := cost(func() { got = pin(b); n.Unpin(p, got) }); got != r || c != 0 {
				t.Errorf("hit on %d bytes: region %p (want %p), %v of CPU (want 0)", len(b), got, r, c)
			}
		}
		// A buffer inside the entry's, up to its last byte, is a covered
		// hit: the same region at the buffer's offset into it.
		for _, at := range []int{4096, 32<<10 - 512} {
			var got *Region
			var off int
			if c := cost(func() { got, off = n.Pin(p, buf[at:at+512]); n.Unpin(p, got) }); got != r || off != at || c != 0 {
				t.Errorf("covered hit at %d: region %p (want %p), offset %d, %v of CPU (want 0)", at, got, r, off, c)
			}
		}

		long := buf[:cap(buf)]
		var r2 *Region
		c := cost(func() { r2 = pin(long); n.Unpin(p, r2) })
		if want := prof.MemDeregCost + prof.RegCost(len(long)); r2 == r || r.Valid() || !r2.Valid() || c != want {
			t.Errorf("longer buffer: same region %v, old still valid %v, new valid %v, %v of CPU (want %v)", r2 == r, r.Valid(), r2.Valid(), c, want)
		}
		if got := n.Regions() - base; got != 1 {
			t.Errorf("after the longer buffer: %d regions pinned, want 1", got)
		}

		n.Deregister(p, r2)
		first := pin(long)
		n.Unpin(p, first)
		if first == r2 || !first.Valid() {
			t.Errorf("a region deregistered elsewhere was handed out again")
		}
		bufs := [][]byte{long}
		for i := 1; i < pinCap; i++ {
			b := make([]byte, 8192, 16384)
			n.Unpin(p, pin(b))
			bufs = append(bufs, b)
		}
		if got := n.Regions() - base; got != pinCap {
			t.Errorf("%d distinct buffers pinned %d regions", pinCap, got)
			return
		}
		var extra *Region
		c = cost(func() { extra = pin(make([]byte, 8192)); n.Unpin(p, extra) })
		if got := n.Regions() - base; got != pinCap || first.Valid() || c != prof.MemDeregCost+prof.RegCost(8192) {
			t.Errorf("buffer %d: %d regions pinned (want %d), first still valid %v, %v of CPU (want %v)",
				pinCap+1, got, pinCap, first.Valid(), c, prof.MemDeregCost+prof.RegCost(8192))
		}
		// The cache now holds bufs[1:] oldest first, then extra's buffer.
		bufs = bufs[1:]

		// In use, the oldest entry survives the next miss; the one after
		// it goes instead.
		held := pin(bufs[0])
		next := pin(bufs[1])
		n.Unpin(p, next)
		n.Unpin(p, pin(make([]byte, 8192)))
		if !held.Valid() || next.Valid() {
			t.Errorf("a miss with the oldest entry in use: oldest valid %v (want true), next-oldest valid %v (want false)", held.Valid(), next.Valid())
		}
		n.Unpin(p, held)

		// Every entry in use: a miss registers outside the cache, and its
		// Unpin deregisters it.
		var inUse []*Region
		for _, e := range n.pins {
			inUse = append(inUse, pin(e.buf))
		}
		var out *Region
		if c := cost(func() { out = pin(make([]byte, 8192)) }); c != prof.RegCost(8192) || len(n.pins) != pinCap || n.Regions()-base != pinCap+1 {
			t.Errorf("a miss with every entry in use: %v of CPU (want %v), %d entries (want %d), %d regions (want %d)",
				c, prof.RegCost(8192), len(n.pins), pinCap, n.Regions()-base, pinCap+1)
		}
		if c := cost(func() { n.Unpin(p, out) }); c != prof.MemDeregCost || out.Valid() || n.Regions()-base != pinCap {
			t.Errorf("its Unpin: %v of CPU (want %v), still valid %v, %d regions (want %d)", c, prof.MemDeregCost, out.Valid(), n.Regions()-base, pinCap)
		}
		for _, e := range inUse {
			if !e.Valid() {
				t.Errorf("an entry in use was deregistered")
			}
			n.Unpin(p, e)
		}

		// A longer buffer at an entry in use: the entry leaves the cache
		// but stays valid for its user, and its last Unpin deregisters it.
		short := pin(bufs[2])
		var longer *Region
		grown := bufs[2][:cap(bufs[2])]
		if c := cost(func() { longer = pin(grown) }); c != prof.RegCost(len(grown)) || !short.Valid() || longer == short {
			t.Errorf("longer buffer at an entry in use: %v of CPU (want %v), entry valid %v, same region %v", c, prof.RegCost(len(grown)), short.Valid(), longer == short)
		}
		if c := cost(func() { n.Unpin(p, short) }); c != prof.MemDeregCost || short.Valid() {
			t.Errorf("the replaced entry's last Unpin: %v of CPU (want %v), still valid %v", c, prof.MemDeregCost, short.Valid())
		}
		if c := cost(func() { n.Unpin(p, longer) }); c != 0 || !longer.Valid() {
			t.Errorf("the new entry's Unpin: %v of CPU (want 0), still valid %v", c, longer.Valid())
		}

		// A covered hit is a user of the entry that covers it. A buffer
		// reaching past the entry's end misses; a longer buffer at the
		// entry's address takes the entry out of the cache, and the covered
		// user's Unpin, its last, deregisters it.
		whole := make([]byte, 8192, 16384)
		e := pin(whole)
		in, off := n.Pin(p, whole[1024:2048])
		n.Unpin(p, e)
		if in != e || off != 1024 || n.PinsInUse() != 1 {
			t.Errorf("covered pin of an entry: same region %v, offset %d (want 1024), %d pins in use (want 1)", in == e, off, n.PinsInUse())
		}
		if past := pin(whole[4096:12288]); past == e {
			t.Errorf("a buffer past the entry's end hit it")
		} else {
			n.Unpin(p, past)
		}
		wider := pin(whole[:cap(whole)])
		if wider == e || !e.Valid() {
			t.Errorf("longer buffer at an entry with a covered user: same region %v, entry valid %v", wider == e, e.Valid())
		}
		if c := cost(func() { n.Unpin(p, in) }); c != prof.MemDeregCost || e.Valid() {
			t.Errorf("the covered user's Unpin: %v of CPU (want %v), entry still valid %v", c, prof.MemDeregCost, e.Valid())
		}
		n.Unpin(p, wider)
		if got := n.PinsInUse(); got != 0 {
			t.Errorf("%d pins in use after every Unpin", got)
		}

		n.RegCache = false
		for range 2 {
			var r *Region
			if c := cost(func() { r = pin(long) }); c != prof.RegCost(len(long)) {
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
