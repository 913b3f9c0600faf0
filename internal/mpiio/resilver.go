package mpiio

import (
	"bytes"
	"errors"
	"fmt"

	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// This file is the recovery half PR 4 left open: background re-silvering.
//
// Two flows share the machinery. The *heal* flow repairs a replica that
// missed writes while its server was down: after the session redials
// cleanly, a background process copies the stale rank objects back from
// live mirror replicas, verifies them byte for byte, and only then
// re-admits the server into read fan-out — re-admission is gated on
// re-silver completion, never on dial success. The *reshape* flow moves a
// driver onto a new session pool and striping (a server joined, or the
// file leaves one): a shadow driver over the new layout receives mirrored
// foreground writes while one migrator copies and verifies the whole
// file under epoch-tagged object names, and every participant then flips
// atomically to the new pool.
//
// Both flows pace their copy traffic through a token bucket running on
// simulated time, so foreground bandwidth dips but never stops — the
// bounded-bandwidth re-silver of the elastic-membership design (DESIGN
// §14).

// Re-silver pacing. Every byte the re-silverer moves or verifies is
// charged to a token bucket refilling at the driver's ResilverRate; the
// copy and verify granularity is one chunk, which is also the bucket
// depth. A copy that has not converged after resilverPasses copy+verify
// rounds (each re-verifies and re-copies the ranges foreground writes
// dirtied since the last) is abandoned.
const (
	// defaultResilverRate is a quarter of a paper-era SAN link's worth of
	// copy bandwidth, in bytes per second of simulated time.
	defaultResilverRate = 32 << 20
	resilverChunk       = 64 << 10
	resilverPasses      = 4
)

// tokenBucket paces background bytes on simulated time: take blocks the
// calling process until the bucket holds n tokens, refilling at rate.
type tokenBucket struct {
	rate   float64 // bytes per second of simulated time
	tokens float64
	last   sim.Time
}

func newTokenBucket(rate float64, now sim.Time) *tokenBucket {
	return &tokenBucket{rate: rate, tokens: resilverChunk, last: now}
}

func (b *tokenBucket) take(p *sim.Proc, n int) {
	now := p.Now()
	b.tokens += float64(now-b.last) * b.rate / 1e9
	b.last = now
	if b.tokens > resilverChunk {
		b.tokens = resilverChunk
	}
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return
	}
	wait := sim.Time((float64(n) - b.tokens) * 1e9 / b.rate)
	if wait < 1 {
		wait = 1
	}
	p.Wait(wait)
	b.tokens = 0
	b.last = p.Now()
}

// startHeal spawns the background re-silver for server t after its
// session redialed cleanly while the server was excluded from read-any.
// The caller (the recovery episode) has already swapped in the fresh
// session; the heal copies every open handle's rank objects hosted on t
// back from live mirror replicas, verifies them, and re-admits t. Until
// it finishes, t stays excluded — re-admission is gated on re-silver
// completion, not on dial success.
func (d *striped) startHeal(p *sim.Proc, t int) {
	if d.healing[t] != nil {
		return
	}
	k := p.Kernel()
	fut := sim.NewFuture[struct{}](k)
	d.healing[t] = fut
	d.m.resilver.Add(1)
	gen := d.layoutEpoch
	ep := d.epoch[t]
	name := fmt.Sprintf("%s.resilver.s%d.e%d", d.node.Name, t, ep)
	k.Spawn(name, func(hp *sim.Proc) {
		ok := d.heal(hp, t, gen, ep)
		d.healing[t] = nil
		d.m.resilver.Add(-1)
		if ok && d.layoutEpoch == gen && d.epoch[t] == ep && d.excluded[t] {
			d.excluded[t] = false
			d.m.excluded.Add(-1)
			d.m.readmits.Inc()
		}
		fut.Set(struct{}{})
	})
}

// heal re-silvers server t's rank objects for every open handle, each from
// a live mirror replica. It returns false when the heal must be abandoned
// (the server failed again, the layout moved on, no mirror is reachable,
// or foreground writes keep outrunning the copy budget); the next clean
// redial starts a fresh heal.
func (d *striped) heal(p *sim.Proc, t int, gen uint32, ep int) bool {
	st := d.striping
	tb := newTokenBucket(d.ResilverRate, p.Now())
	buf := make([]byte, 2*resilverChunk)
	stale := func() bool { return d.layoutEpoch != gen || d.epoch[t] != ep || d.down[t] }
	// Snapshot: handles opened after the heal started saw the server
	// excluded and wrote nothing it could miss.
	hs := append([]*stripedHandle(nil), d.handles...)
	for _, h := range hs {
		for r := 0; r < st.R() && !h.closed; r++ {
			if !h.present(t, r) {
				continue
			}
			prim := (t - r + st.Width) % st.Width // primary whose data rank r mirrors
			src := rankObject{h: h, t: -1}
			for sr := 0; sr < st.R() && src.t < 0; sr++ {
				if m := st.ReplicaServer(prim, sr); m != t && d.live(m, true) && h.present(m, sr) {
					src.t, src.r = m, sr
				}
			}
			if src.t < 0 {
				return false
			}
			// A shrink the server missed leaves its object long, and the
			// copy only ever writes up to the source's size: take the
			// source's size first. A write landing after this is picked
			// up by verifyCopy's next pass; truncating after the copy
			// would cut such writes off.
			dst := rankObject{h: h, t: t, r: r}
			size, err := src.Size(p)
			if err == nil {
				err = dst.truncate(p, size)
			}
			if err != nil {
				return false
			}
			if _, err := d.verifyCopy(p, tb, buf, src, dst, stale); err != nil {
				return false
			}
		}
	}
	return true
}

// copyEnd is one side of a verify-first copy: a whole striped file (its
// handle) or a single rank object.
type copyEnd interface {
	starter
	Size(p *sim.Proc) (int64, error)
}

var errCopyAbandoned = errors.New("mpiio: copy overtaken")

// verifyCopy is the re-silverer's one copy loop, under both the heal of a
// stale replica and a reshape's migration: chunk by chunk through the
// token bucket it reads the source, reads the destination, and writes only
// the chunks that differ — bytes already identical (an earlier pass, or
// foreground write-all landing on both sides) cost one bucketed read each
// side and no copy. Each pass re-reads the source size and re-verifies
// everything, so ranges dirtied by concurrent foreground writes are picked
// up; a clean pass after the first means the copy converged, and the
// source size it covered is returned. stale, when set, reports that the
// copy has been overtaken and must be abandoned. buf holds two chunks.
func (d *striped) verifyCopy(p *sim.Proc, tb *tokenBucket, buf []byte, src, dst copyEnd, stale func() bool) (int64, error) {
	chunk := len(buf) / 2
	sbuf, dbuf := buf[:chunk], buf[chunk:]
	for pass := 0; pass < resilverPasses; pass++ {
		size, err := src.Size(p)
		if err != nil {
			return 0, fmt.Errorf("size: %w", err)
		}
		clean := true
		for off := int64(0); off < size; off += int64(chunk) {
			if stale != nil && stale() {
				return 0, errCopyAbandoned
			}
			n := int(min(int64(chunk), size-off))
			tb.take(p, n)
			sn, err := transfer(p, src, off, sbuf[:n], false)
			if err != nil {
				return 0, fmt.Errorf("read: %w", err)
			}
			tb.take(p, sn)
			dn, err := transfer(p, dst, off, dbuf[:sn], false)
			if err != nil {
				return 0, fmt.Errorf("verify read: %w", err)
			}
			if dn == sn && bytes.Equal(sbuf[:sn], dbuf[:dn]) {
				continue
			}
			clean = false
			tb.take(p, sn)
			if _, err := transfer(p, dst, off, sbuf[:sn], true); err != nil {
				return 0, fmt.Errorf("write: %w", err)
			}
			d.m.resilverB.Add(int64(sn))
		}
		if clean && (pass > 0 || size == 0) {
			return size, nil
		}
	}
	return 0, fmt.Errorf("did not converge in %d passes (foreground writes outran the copy budget)", resilverPasses)
}

// rankObject is the rank-r object on server t of an open file, addressed
// directly: single flights through the dispatch core with no failover. A
// session failure marks the server down (so recovery runs) and surfaces,
// abandoning the heal; a later episode retries.
type rankObject struct {
	h    *stripedHandle
	t, r int
}

// meta runs a Getattr (kind opGetattr) or a Setattr to size n (opSetattr)
// on the object and returns the size the Getattr reported.
func (o rankObject) meta(p *sim.Proc, kind opKind, n int64) (int64, error) {
	st := o.h.drv.striping
	prim := (o.t - o.r + st.Width) % st.Width
	w := &objWork{stripedHandle: o.h, kind: kind, sizes: make([]int64, st.Width)}
	w.sizes[prim] = n
	err := o.h.drv.once(p, w, prim, o.t, o.r)
	return w.sizes[prim], err
}

func (o rankObject) Size(p *sim.Proc) (int64, error) { return o.meta(p, opGetattr, 0) }

// truncate sets the object's size to n.
func (o rankObject) truncate(p *sim.Proc, n int64) error {
	_, err := o.meta(p, opSetattr, n)
	return err
}

// Start moves buf to or from the object as one flight and returns it
// completed.
func (o rankObject) Start(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error) {
	d := o.h.drv
	w := &fragOp{stripedHandle: o.h, write: write, frags: []layout.Fragment{{Off: off, Len: int64(len(buf))}}, buf: buf, counts: []int{len(buf)}}
	w.reg = d.pin(p, buf, w.frags)
	defer d.nic.Unpin(p, w.reg)
	if err := d.once(p, w, 0, o.t, o.r); err != nil {
		return nil, err
	}
	return doneOp(w.counts[0]), nil
}
