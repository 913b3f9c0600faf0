package mpiio

import (
	"errors"
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// ErrReshape wraps reshape-protocol failures.
var ErrReshape = errors.New("mpiio: reshape failed")

// Reshape moves a striped driver onto a new session pool and striping —
// the client side of a membership change (a server joined, or the file
// leaves one). The protocol has four steps:
//
//	rs, _ := d.PrepareReshape(p, newPool, newStriping, epoch)
//	err := rs.Migrate(p)   // one participant only: the migrator
//	rs.Commit(p)           // every participant, after the migrator is done
//	rs.Cleanup(p)          // migrator only, after every participant committed
//
// Prepare builds a shadow driver over the new pool, opens a shadow handle
// for every open handle under epoch-tagged object names, and turns on
// dual-writes: from here every foreground write (contiguous, batched,
// Resize, Sync) lands on both layouts, so the migrator never races a
// write it cannot see. Migrate copies the file old → new through the
// driver's re-silver token bucket and verifies it byte for byte,
// re-verifying ranges foreground writes dirtied until a full pass is
// clean. Commit atomically flips the driver (and its open handles) to the
// new pool; it is idempotent, so in a multi-client run each client
// commits its own driver once the migrator reports success. Cleanup
// removes the old epoch's objects and must wait for every participant's
// Commit — until then other clients still read through the old layout.
//
// Cross-client sequencing (who migrates, when everyone commits) is the
// caller's job; the driver only guarantees that dual-writes make the copy
// safe and that Commit is a pure local pointer flip.
type Reshape struct {
	d      *striped
	shadow *striped // the driver over the new layout; nil once Commit retired it into d
	old    *pool    // the layout being left, kept for Cleanup after Commit rewires d
	epoch  uint32

	pairs []reshapePair

	committed bool
}

type reshapePair struct{ h, sh *stripedHandle }

// PrepareReshape starts a reshape onto the given session pool and
// striping at the given membership epoch. Every open handle gets a shadow
// handle on the new layout (objects created under epoch-tagged names) and
// dual-writes begin. The pool must share the driver's NIC and the epoch
// must advance.
func (d *StripedDAFSDriver) PrepareReshape(p *sim.Proc, clients []*dafs.Client, st layout.Striping, epoch uint32) (*Reshape, error) {
	if d.next != nil {
		return nil, fmt.Errorf("%w: reshape already in progress", ErrReshape)
	}
	if epoch <= d.layoutEpoch {
		return nil, fmt.Errorf("%w: epoch %d does not advance %d", ErrReshape, epoch, d.layoutEpoch)
	}
	rs := &Reshape{
		d:      &d.striped,
		shadow: &striped{pool: newDAFSPool(clients, st, epoch), Retry: d.Retry, ResilverRate: d.ResilverRate},
		old:    d.pool,
		epoch:  epoch,
	}
	for _, h := range append([]*stripedHandle(nil), d.handles...) {
		if err := rs.attach(p, h); err != nil {
			rs.abort(p)
			return nil, err
		}
	}
	d.next = rs
	return rs, nil
}

// attach opens the shadow handle for h on the new layout and starts
// mirroring its writes. Open calls this for handles opened mid-reshape.
func (rs *Reshape) attach(p *sim.Proc, h *stripedHandle) error {
	sh, err := rs.shadow.open(p, h.name, ModeRdWr|ModeCreate)
	if err != nil {
		return fmt.Errorf("%w: shadow open %q: %w", ErrReshape, h.name, err)
	}
	h.shadow = sh
	rs.pairs = append(rs.pairs, reshapePair{h, sh})
	return nil
}

// abort detaches the shadow handles of a Prepare that failed partway.
func (rs *Reshape) abort(p *sim.Proc) {
	for _, pr := range rs.pairs {
		pr.h.shadow = nil
		pr.sh.Close(p)
	}
	rs.pairs = nil
}

// Migrate copies every open file onto the new layout through the two
// layouts' own handles (so both sides keep their striping, replication and
// failover), bounded by the driver's re-silver token bucket, and
// verifies the copy byte for byte. Ranges dirtied by concurrent foreground
// writes (which dual-write onto both layouts) are re-verified until a
// whole pass is clean; if resilverPasses run out first, Migrate fails and
// the reshape can be retried or abandoned. Exactly one participant of a
// shared file runs Migrate.
func (rs *Reshape) Migrate(p *sim.Proc) error {
	tb := newTokenBucket(rs.d.ResilverRate, p.Now())
	buf := make([]byte, 2*resilverChunk)
	for _, pr := range rs.pairs {
		if pr.h.closed {
			continue
		}
		size, err := rs.d.verifyCopy(p, tb, buf, pr.h, pr.sh, nil)
		if err == nil {
			// Pin the logical size: the old file may have shrunk.
			err = pr.sh.Resize(p, size)
		}
		if err != nil {
			return fmt.Errorf("%w: %q: %w", ErrReshape, pr.h.name, err)
		}
	}
	return nil
}

// Commit flips the driver onto the new layout: the pool state — sessions,
// striping, failure flags, staging buffers, instruments — becomes the
// shadow's in one assignment, every open handle's objects become its
// shadow handle's, and dual-writes stop. Idempotent; purely local (no
// I/O), so every participant of a shared file can commit the moment the
// migrator reports success. Old sessions stay connected — servers the new
// layout drops keep servicing other clients until Cleanup.
func (rs *Reshape) Commit(p *sim.Proc) {
	if rs.committed {
		return
	}
	rs.committed = true
	d := rs.d
	d.pool = rs.shadow.pool
	d.m.epochG.Set(int64(d.layoutEpoch))
	for _, pr := range rs.pairs {
		if pr.h.closed {
			continue
		}
		pr.h.fhs = pr.sh.fhs
		pr.h.shadow = nil
		pr.sh.closed = true // retired, not Closed: the objects live on in pr.h
	}
	d.next = nil
	rs.shadow = nil
}

// Cleanup removes the old epoch's objects, best effort: absent objects
// and dead sessions are skipped (fail-stop leaves orphans, exactly like
// Delete on a degraded pool). Only the migrator cleans up, and only after
// EVERY participant has committed — other clients read through the old
// layout until their Commit. The removals go one object at a time: the
// dropped servers are still serving those clients' foreground reads.
func (rs *Reshape) Cleanup(p *sim.Proc) {
	if !rs.committed {
		return
	}
	old := &striped{pool: rs.old}
	W, R := rs.old.striping.Width, rs.old.striping.R()
	for _, pr := range rs.pairs {
		rm := &nameWork{d: old, kind: opRemove, name: pr.h.name}
		for r := 0; r < R; r++ {
			for t := 0; t < W; t++ {
				old.once(p, rm, (t-r+W)%W, t, r)
			}
		}
	}
}

// mirroredOp joins a write's old-layout and new-layout halves: the count
// is the active layout's, and a hard error on either side surfaces.
type mirroredOp struct {
	main, shadow AsyncOp
}

// mirror pairs a started write with its shadow half; when the shadow
// failed to start, the main half is waited out and the failure returned.
func mirror(p *sim.Proc, main, shadow AsyncOp, err error) (AsyncOp, error) {
	if err != nil {
		main.Wait(p)
		return nil, err
	}
	return mirroredOp{main, shadow}, nil
}

func (o mirroredOp) Wait(p *sim.Proc) (int, error) {
	n, err := o.main.Wait(p)
	if _, serr := o.shadow.Wait(p); err == nil && serr != nil {
		return 0, serr
	}
	return n, err
}
