package mpiio

import (
	"errors"
	"slices"

	"dafsio/internal/sim"
)

// The replicated-stripe dispatch core. Every operation of the striped
// driver — a contiguous transfer's stripe fragments, a list transfer's
// per-server batch plans, a Setattr or Fsync on every rank object, the
// Getattr behind Size, the Lookup/Create/Remove waves of Open and Delete,
// the re-silverer's raw object copies — is a set of *units*, each stored
// as R rank objects on the servers layout.ReplicaServer(primary, r), and
// each rank object's share of it is one *flight*. The policies live here
// and nowhere else:
//
//   - issue / settle: start one flight, wait one flight. A session
//     failure on either side marks the server down and starts its
//     recovery (noteFailure); any other error is hard and surfaces.
//   - begin / finish / redrive: write-all — a unit is done once any
//     replica acked it, and replicas that missed it are excluded from
//     read-any — and read-any — a unit goes to its first usable replica.
//     A unit nobody answered is re-driven: wait for a recovery, reissue,
//     until a replica answers or every one is permanently gone.
//   - wave: every flight once, best effort, for operations that resolve
//     or remove objects and decide for themselves what a missing answer
//     means.
//
// The work being dispatched is behind the work interface and the server
// it goes to behind the session seam, so the same code runs striped DAFS
// with replication and failover and striped NFS without.

// errNoReplica reports a single-object operation whose server is down.
var errNoReplica = errors.New("mpiio: replica unusable")

// work is the unit-of-work side of a dispatch.
type work interface {
	// primary is the server whose rank-0 object holds unit u.
	primary(u int) int
	// present reports whether the rank-r object on server t exists for
	// this work (a handle may have been opened while t was down).
	present(t, r int) bool
	// request builds unit u's operation on the rank-r object of server t.
	request(u, t, r int) request
	// absorb takes the value that object returned.
	absorb(u, t, r, v int)
}

// flight is one rank object's share of a dispatch: unit u on the rank-r
// object of server t.
type flight struct {
	u, t, r int
	op      AsyncOp // in flight; nil when not issued, or settled without an ack
	c       session // session op was issued on (stale-guard for noteFailure)
	err     error   // the session failure that cost this flight its ack, if any
}

// grid returns one flight per rank object of the pool in server-major
// order, the unit being the object's primary: the shape of an operation
// that touches every object of a file.
func (d *striped) grid() []flight {
	W, R := d.striping.Width, d.striping.R()
	fl := make([]flight, 0, W*R)
	for t := 0; t < W; t++ {
		for r := 0; r < R; r++ {
			fl = append(fl, flight{u: (t - r + W) % W, t: t, r: r})
		}
	}
	return fl
}

// issue starts f's unit on its rank object when that replica is usable,
// leaving f.op nil when it is not or when the session fails at start (the
// failure is noted and returned). A flight skipped because its server is
// down carries the failure that took the server down, so an operation that
// finds every replica gone still reports why. Only hard errors need the
// caller's attention: !isSessionErr(err).
func (d *striped) issue(p *sim.Proc, w work, f *flight, forRead bool) error {
	f.op = nil
	if !d.live(f.t, forRead) || !w.present(f.t, f.r) {
		if d.down[f.t] {
			f.err = d.cause[f.t]
		}
		return nil
	}
	rq := w.request(f.u, f.t, f.r)
	if rq.kind == opRead || rq.kind == opWrite {
		d.m.dispatch[f.t].Inc()
	}
	c := d.sess[f.t]
	op, err := c.start(p, rq)
	if err != nil {
		err = mapErr(err)
		if isSessionErr(err) {
			d.noteFailure(p, f.t, c, err)
			f.err = err
		}
		return err
	}
	f.op, f.c = op, c
	return nil
}

// settle waits an issued flight out and hands its value to the work. On
// any error f.op is cleared; a session failure is noted and kept in f.err.
func (d *striped) settle(p *sim.Proc, w work, f *flight) error {
	v, err := f.op.Wait(p)
	if err != nil {
		err = mapErr(err)
		f.op = nil
		if isSessionErr(err) {
			d.noteFailure(p, f.t, f.c, err)
			f.err = err
		}
		return err
	}
	w.absorb(f.u, f.t, f.r, v)
	return nil
}

// drain waits out the flights of an abandoned dispatch that are still in
// the air: their completions recycle session credits.
func (d *striped) drain(p *sim.Proc, w work, fl []flight) {
	for i := range fl {
		if fl[i].op != nil {
			d.settle(p, w, &fl[i])
		}
	}
}

// launch issues every flight in order, all left in flight. On a hard error
// it stops issuing, drains what is already in flight and returns it.
func (d *striped) launch(p *sim.Proc, w work, fl []flight) error {
	for i := range fl {
		if err := d.issue(p, w, &fl[i], false); err != nil && !isSessionErr(err) {
			d.drain(p, w, fl[:i])
			return err
		}
	}
	return nil
}

// wave launches fl and settles every flight, tolerating session failures:
// afterwards a flight with op != nil was answered. It returns the first
// hard error.
func (d *striped) wave(p *sim.Proc, w work, fl []flight) error {
	if err := d.launch(p, w, fl); err != nil {
		return err
	}
	var firstErr error
	for i := range fl {
		if fl[i].op == nil {
			continue
		}
		if err := d.settle(p, w, &fl[i]); err != nil && !isSessionErr(err) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// once runs unit u on the single rank object (t, r), no failover: the
// re-silverer and Cleanup address objects, not units.
func (d *striped) once(p *sim.Proc, w work, u, t, r int) error {
	f := flight{u: u, t: t, r: r}
	if err := d.issue(p, w, &f, false); err != nil {
		return err
	}
	if f.op == nil {
		return errNoReplica
	}
	return d.settle(p, w, &f)
}

// zeroed returns n zero values, in buf's storage when it has room for
// them — how a dispatch keeps the tables of a small request off the heap.
func zeroed[T any](buf []T, n int) []T {
	if n > cap(buf) {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// begin issues a dispatch of n units. A write goes to every replica of
// every unit, unit by unit (write-all); a read to each unit's first usable
// replica, moving on when a session fails at start (read-any). Units with
// no usable replica stay idle for finish to re-drive. The flights are laid
// out in fl's storage, grown when it is short (fl may be nil). On a hard
// error the flights already issued are drained and no flights are
// returned.
func (d *striped) begin(p *sim.Proc, w work, n int, write bool, fl []flight) ([]flight, error) {
	st := d.striping
	if write {
		fl = slices.Grow(fl[:0], n*st.R())
		for u := 0; u < n; u++ {
			for r := 0; r < st.R(); r++ {
				fl = append(fl, flight{u: u, t: st.ReplicaServer(w.primary(u), r), r: r})
			}
		}
		return fl, d.launch(p, w, fl)
	}
	fl = zeroed(fl, n)
	for u := range fl {
		f := &fl[u]
		f.u = u
		for r := 0; r < st.R() && f.op == nil; r++ {
			f.t, f.r = st.ReplicaServer(w.primary(u), r), r
			if err := d.issue(p, w, f, true); err != nil && !isSessionErr(err) {
				d.drain(p, w, fl[:u])
				return nil, err
			}
		}
	}
	return fl, nil
}

// finish completes a dispatch begun by begin (or, for a write, launched
// over any flight order with R flights per unit). Flights are settled in
// order and a unit is judged the moment its last flight is in: a write
// nobody acked, or a read whose replica failed, is re-driven on the spot,
// and replicas that missed an acked write are excluded from read-any.
// After a hard error the remaining flights are still drained.
func (d *striped) finish(p *sim.Proc, w work, fl []flight, write bool) error {
	type unit struct {
		seen   int   // flights settled so far
		acked  bool  // some replica answered
		missed bool  // some replica did not
		sess   error // last session failure
	}
	R := 1
	if write {
		R = d.striping.R()
	}
	var small [inlineFrags]unit // a request's units, without a heap table
	us := zeroed(small[:0], len(fl)/R)
	var firstErr error
	for i := range fl {
		f := &fl[i]
		u := &us[f.u]
		err := f.err
		if f.op != nil {
			err = d.settle(p, w, f)
		}
		switch {
		case f.op != nil:
			u.acked = true
		case err == nil || isSessionErr(err):
			u.missed = true
			if err != nil {
				u.sess = err
			}
		case firstErr == nil:
			firstErr = err
		}
		if u.seen++; u.seen < R || firstErr != nil {
			continue // unit still in flight, or hard failure: keep draining
		}
		switch {
		case !u.acked:
			firstErr = d.redrive(p, w, f.u, write, u.sess)
		case u.missed:
			for j := range fl {
				if fl[j].u == f.u && fl[j].op == nil {
					d.exclude(fl[j].t)
				}
			}
		}
	}
	return firstErr
}

// redrive takes unit u, which no replica answered, through the failover
// path until one does: wait for a session recovery, issue — a write to
// every usable replica in turn, a read to the first — and repeat on
// further session failures, for at most Retry.Attempts rounds that reach
// a recovered replica and get no ack (a server that keeps missing the call
// deadline would otherwise be redialed forever). Replicas that miss the
// write round that finally succeeds are excluded from read-any. The
// terminal error is ErrAllReplicasDown wrapping the unit's last session
// failure.
func (d *striped) redrive(p *sim.Proc, w work, u int, write bool, lastErr error) error {
	st := d.striping
	srv := w.primary(u)
	for round := 0; ; round++ {
		if round >= max(d.Retry.Attempts, 1) || !d.waitRecovery(p, w, srv, !write) {
			return d.allDown(lastErr)
		}
		acked := false
		var missed []int
		for r := 0; r < st.R() && (write || !acked); r++ {
			f := flight{u: u, t: st.ReplicaServer(srv, r), r: r}
			err := d.issue(p, w, &f, !write)
			if f.op != nil {
				err = d.settle(p, w, &f)
			}
			switch {
			case f.op != nil:
				acked = true
			case err == nil || isSessionErr(err):
				missed = append(missed, f.t)
				if err != nil {
					lastErr = err
				}
			default:
				return err
			}
		}
		if !acked {
			continue
		}
		for _, t := range missed {
			if write {
				d.exclude(t)
			}
		}
		return nil
	}
}
