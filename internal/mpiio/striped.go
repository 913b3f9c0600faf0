package mpiio

import (
	"errors"
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/layout"
	"dafsio/internal/metrics"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// striped is the replicated-stripe driver core. It binds MPI-IO to a pool
// of per-server sessions with a layout.Striping policy deciding which
// server holds which bytes: a contiguous request is mapped to per-server
// stripe fragments, every fragment is issued as a nonblocking operation,
// and the completions are aggregated — writes count once acked, reads
// report the contiguous prefix so EOF mid-stripe keeps POSIX short-read
// semantics. Each server stores one stripe object under the file's name.
//
// With Replicas > 1 it adds ROMIO/ADIO-style multi-backend dispatch on top
// of the layout's rotated replica placement: writes go to every replica
// (write-all), reads are served by the first usable replica (read-any),
// and a session failure on one replica fails over to the next while a
// background process re-establishes the dead session under the Retry
// policy. A server that misses a write is excluded from read-any from then
// on — its object is stale — and when every replica of a unit is gone the
// operation fails wrapping dafs.ErrAllReplicasDown. All of that is written
// once, in striped_dispatch.go, over the session seam of striped_leaf.go; this
// file holds the state it runs on.
//
// With Width == 1 the layout is the identity mapping and every request
// becomes exactly one operation on the one session: that is the
// single-server driver NewDAFSDriver, NewNFSDriver and NewMemDriver build.
// With Replicas <= 1 and no failures every code path issues exactly the
// operations an unreplicated driver would, in the same order.
type striped struct {
	// pool is the state of the active layout. A reshape builds a second
	// one beside it and Commit flips this pointer.
	*pool

	// Retry governs session recovery: after a failure the driver redials
	// the dead server with capped exponential backoff in simulated time.
	// The zero value (Attempts == 0) never redials — the first failure on
	// a server is final, the pre-replication behaviour.
	Retry dafs.RetryPolicy

	// Retries counts redial attempts (stat).
	Retries int64

	// ResilverRate bounds background re-silver traffic (heals after a
	// replica redials, copies during a reshape) in bytes per second of
	// simulated time. The DAFS constructors set defaultResilverRate.
	ResilverRate float64

	handles     []*stripedHandle // open handles (heal / reshape coverage)
	next        *Reshape         // in-progress reshape, nil when none
	free        []*fragOp        // waited contiguous ops, for reuse
	madeFragOps int              // ops made in chunks (makeFragOps)
	freePlans   []*planOp        // waited list ops, for reuse
	scratch     []*scratch       // working sets of noncontiguous calls, for reuse (scratch.go)
}

// pool is everything a striped driver knows about one layout: the sessions
// and the placement they serve, which of them are failed or stale, and the
// instruments. It is one value so that a reshape can prepare the next
// layout in full and commit it by assigning a single pointer.
type pool struct {
	// dafsTransfer supplies the DAFS leaf's transfer-discipline knobs, and
	// nic is the client's NIC: its pin-down cache registers user buffers,
	// and all sessions of a pool share it, so one registration serves
	// every per-server fragment of a request. Both are nil over a leaf
	// without registered memory (NFS, the local store), which therefore
	// has no list path either.
	*dafsTransfer
	nic *via.NIC

	node *fabric.Node  // client host
	tr   *trace.Tracer // nil when tracing is off

	sess        []session // one per server, in layout order
	striping    layout.Striping
	layoutEpoch uint32 // membership epoch of this layout

	down     []bool                  // per server: session currently unusable
	excluded []bool                  // per server: missed a write, stale for reads
	gaveUp   []bool                  // per server: recovery exhausted, permanently dead
	cause    []error                 // per server: the session failure that marked it down
	episode  []*sim.Future[struct{}] // per server: in-progress recovery, nil when none
	epoch    []int                   // per server: recovery episode counter
	healing  []*sim.Future[struct{}] // per server: in-progress re-silver, nil when none

	m stripedMetrics
}

// stripedMetrics bundles the driver's instruments under the client node's
// name. Shared registration: a node can host more than one pool over a
// run (re-opened pools in tests, the two layouts of a reshape), and they
// aggregate. Zero values (metrics off) are no-ops.
type stripedMetrics struct {
	retries   metrics.Counter   // redial attempts
	failovers metrics.Counter   // sessions newly marked down
	down      metrics.Gauge     // servers currently down
	excluded  metrics.Gauge     // servers excluded from read-any
	resilver  metrics.Gauge     // re-silver processes currently running
	resilverB metrics.Counter   // bytes copied by re-silvering
	readmits  metrics.Counter   // servers re-admitted to read-any after a heal
	epochG    metrics.Gauge     // membership epoch of the active layout
	dispatch  []metrics.Counter // fragments issued, per server index
}

func newStripedMetrics(reg *metrics.Registry, node string, width int) stripedMetrics {
	dispatch := make([]metrics.Counter, width)
	if reg == nil {
		// Metrics off: the zero instruments are no-ops, and no name is built.
		return stripedMetrics{dispatch: dispatch}
	}
	pre := "mpiio.striped." + node + "."
	m := stripedMetrics{
		retries:   reg.SharedCounter(pre + "retries"),
		failovers: reg.SharedCounter(pre + "failovers"),
		down:      reg.SharedGauge(pre + "down"),
		excluded:  reg.SharedGauge(pre + "excluded"),
		resilver:  reg.SharedGauge(pre + "resilver_active"),
		resilverB: reg.SharedCounter(pre + "resilver_bytes"),
		readmits:  reg.SharedCounter(pre + "readmits"),
		epochG:    reg.SharedGauge(pre + "epoch"),
		dispatch:  dispatch,
	}
	for t := range dispatch {
		dispatch[t] = reg.SharedCounter(fmt.Sprintf("%sdispatch.%d", pre, t))
	}
	return m
}

// newPool builds the state of one layout over sess, one session per server
// in layout order. reg may be nil (no instruments).
func newPool(sess []session, st layout.Striping, epoch uint32, node *fabric.Node, reg *metrics.Registry) *pool {
	if err := st.Validate(); err != nil {
		panic(err)
	}
	if len(sess) != st.Width {
		panic(fmt.Sprintf("mpiio: %d sessions for stripe width %d", len(sess), st.Width))
	}
	return &pool{
		node:        node,
		sess:        sess,
		striping:    st,
		layoutEpoch: epoch,
		down:        make([]bool, st.Width),
		excluded:    make([]bool, st.Width),
		gaveUp:      make([]bool, st.Width),
		cause:       make([]error, st.Width),
		episode:     make([]*sim.Future[struct{}], st.Width),
		epoch:       make([]int, st.Width),
		healing:     make([]*sim.Future[struct{}], st.Width),
		m:           newStripedMetrics(reg, node.Name, st.Width),
	}
}

// newDAFSPool builds a pool over DAFS sessions, which must share one NIC.
func newDAFSPool(clients []*dafs.Client, st layout.Striping, epoch uint32) *pool {
	c0 := clients[0]
	xfer := &dafsTransfer{DirectThreshold: c0.MaxInline()}
	sess := make([]session, len(clients))
	leaves := make([]dafsSession, len(clients))
	for i, c := range clients {
		if c.NIC() != c0.NIC() {
			panic("mpiio: striped session pool spans NICs")
		}
		// Inline fragments must fit every session's negotiated limit.
		xfer.DirectThreshold = min(xfer.DirectThreshold, c.MaxInline())
		leaves[i] = dafsSession{c: c, xfer: xfer}
		sess[i] = &leaves[i]
	}
	pl := newPool(sess, st, epoch, c0.Node(), c0.NIC().Provider().Metrics)
	pl.dafsTransfer, pl.nic = xfer, c0.NIC()
	pl.tr = c0.Tracer()
	return pl
}

// StripedDAFSDriver is the striped core over a pool of DAFS sessions, one
// per server. Its exported knobs are the core's Retry, Retries and
// ResilverRate plus the transfer discipline's DirectThreshold; the
// registration cache is the client NIC's (via.NIC.Pin).
type StripedDAFSDriver struct{ striped }

// NewDAFSDriver binds MPI-IO to one DAFS session: the striped core at
// width 1, where the layout is the identity and every request is one
// operation on that session.
func NewDAFSDriver(c *dafs.Client) *StripedDAFSDriver {
	return NewStripedDAFSDriver([]*dafs.Client{c}, layout.Striping{Width: 1})
}

// NewStripedDAFSDriver wraps a session pool, one session per server in
// layout order. The pool must match the policy's width and share one NIC.
func NewStripedDAFSDriver(clients []*dafs.Client, st layout.Striping) *StripedDAFSDriver {
	d := &StripedDAFSDriver{striped{pool: newDAFSPool(clients, st, 1), ResilverRate: defaultResilverRate}}
	d.m.epochG.Set(int64(d.layoutEpoch))
	return d
}

// PlainDriver is the striped core over a leaf with nothing to tune: NFS
// mounts and the node-local store register no memory and never redial, so
// none of the core's knobs is exported.
type PlainDriver struct{ s striped }

// NewStripedNFSDriver wraps a mount pool, one mount per server in layout
// order. The policy must be unreplicated — NFS has no write-all fan-out.
// It exists to split the layout effect from the transport effect: striped
// NFS gets the aggregate disk and link bandwidth of N servers, but every
// fragment still pays the kernel-stack and copy costs of the NFS path,
// while striped DAFS pays the user-level VIA costs. Both run the same
// striping code, so comparing the two at equal width isolates what
// striping buys from what the transport buys. Metadata goes one mount at a
// time (NFS metadata RPCs are synchronous), data fragments all in flight;
// no replication — rank 0 objects only, like NFS deployments of the era.
func NewStripedNFSDriver(clients []*nfs.Client, st layout.Striping) *PlainDriver {
	if st.R() != 1 {
		panic("mpiio: striped NFS does not replicate")
	}
	sess := make([]session, len(clients))
	for i, c := range clients {
		sess[i] = nfsSession{c}
	}
	return &PlainDriver{striped{pool: newPool(sess, st, 1, clients[0].Node(), nil)}}
}

// NewNFSDriver binds MPI-IO to one NFS mount, the paper's baseline
// transport: the striped core at width 1. Transfers are chunked to the
// mount's rsize/wsize and pipelined by the NFS client; every byte crosses
// the kernel stack on both ends.
func NewNFSDriver(m *nfs.Client) *PlainDriver {
	return NewStripedNFSDriver([]*nfs.Client{m}, layout.Striping{Width: 1})
}

// NewMemDriver binds MPI-IO to store as node's local file system: the
// striped core at width 1 over a mem session (striped_leaf.go), the
// lowest-latency — but not network-attached — point of comparison.
//
//mpiolint:ignore reach test oracle: the node-local store stack TestScriptEveryStack and TestDeleteAndDeleteOnClose run beside DAFS and NFS
func NewMemDriver(node *fabric.Node, store *storage.Store) *PlainDriver {
	sess := []session{memSession{node: node, store: store}}
	return &PlainDriver{striped{pool: newPool(sess, layout.Striping{Width: 1}, 1, node, nil)}}
}

// Node implements Driver.
func (d *PlainDriver) Node() *fabric.Node { return d.s.Node() }

// Open implements Driver.
func (d *PlainDriver) Open(p *sim.Proc, name string, mode int) (Handle, error) {
	return d.s.Open(p, name, mode)
}

// Delete implements Driver.
func (d *PlainDriver) Delete(p *sim.Proc, name string) error { return d.s.Delete(p, name) }

// core implements Driver.
func (d *PlainDriver) core() *striped { return &d.s }

// LayoutEpoch returns the membership epoch of the driver's active layout.
func (d *striped) LayoutEpoch() uint32 { return d.layoutEpoch }

// Striping returns the placement policy.
func (d *striped) Striping() layout.Striping { return d.striping }

// Node implements Driver.
func (d *striped) Node() *fabric.Node { return d.node }

// core implements Driver.
func (d *striped) core() *striped { return d }

// objName is the on-store name of rank r's stripe object under the pool's
// layout epoch. Epoch 1 keeps the plain replica name, so static clusters
// stay store-compatible with everything written before layouts were
// versioned.
func (d *striped) objName(name string, r int) string {
	return layout.EpochName(layout.ReplicaName(name, r), d.layoutEpoch)
}

// isSessionErr reports whether err is (or wraps) a session failure — the
// class failover handles; everything else is a hard protocol or storage
// error surfaced to the caller.
func isSessionErr(err error) bool {
	return errors.Is(err, dafs.ErrSession)
}

// allDown builds the operation-level error for a unit with no usable
// replica left, wrapping both dafs.ErrAllReplicasDown and (when known) the
// last session failure so either sentinel matches.
func (d *striped) allDown(last error) error {
	if last == nil {
		return fmt.Errorf("mpiio: %w", dafs.ErrAllReplicasDown)
	}
	return fmt.Errorf("mpiio: %w: %w", dafs.ErrAllReplicasDown, last)
}

// exclude marks server t stale for read-any: it missed an acked write, so
// only replicas that saw every write may serve reads.
func (d *striped) exclude(t int) {
	if d.excluded[t] {
		return
	}
	d.excluded[t] = true
	d.m.excluded.Add(1)
}

// noteFailure records session failure err on server s. The first failure
// of a session marks the server down, with err as the cause every later
// operation that finds it down reports, and, when a retry policy is set,
// spawns a recovery process that redials the server with capped exponential
// backoff; concurrent failures of the same session (every in-flight op on
// it fails at once) collapse into one episode, and failures of an already
// replaced session are ignored.
func (d *striped) noteFailure(p *sim.Proc, s int, failed session, err error) {
	if d.sess[s] != failed || d.down[s] {
		return
	}
	d.down[s], d.cause[s] = true, err
	d.m.failovers.Inc()
	d.m.down.Add(1)
	if d.gaveUp[s] {
		return
	}
	if d.Retry.Attempts <= 0 {
		d.gaveUp[s] = true
		return
	}
	k := p.Kernel()
	fut := sim.NewFuture[struct{}](k)
	d.episode[s] = fut
	d.epoch[s]++
	name := fmt.Sprintf("%s.redial.s%d.e%d", d.node.Name, s, d.epoch[s])
	k.Spawn(name, func(rp *sim.Proc) {
		defer func() {
			d.episode[s] = nil
			fut.Set(struct{}{})
		}()
		for a := 0; a < d.Retry.Attempts; a++ {
			rp.Wait(d.Retry.Backoff(a))
			d.Retries++
			d.m.retries.Inc()
			ns, err := failed.redial(rp)
			if err == nil {
				d.sess[s] = ns
				d.down[s] = false
				d.m.down.Add(-1)
				// A replica that missed writes while down is stale: the
				// redial restores the session, not the data. Re-admission
				// to read-any waits for the background re-silver, never on
				// dial success alone.
				if d.excluded[s] {
					d.startHeal(rp, s)
				}
				return
			}
		}
		d.gaveUp[s] = true
	})
}

// live reports whether server t's session can serve an operation right
// now. Reads additionally refuse servers that missed a write — their
// objects are stale, and write-all/read-any only guarantees freshness on
// replicas that saw every acked write. A read therefore goes to the first
// live rank holding the object, in rank order: with Replicas == 1 on a
// healthy pool always the primary — the unreplicated dispatch.
func (d *striped) live(t int, forRead bool) bool {
	return !d.down[t] && !(forRead && d.excluded[t])
}

// waitRecovery blocks until some replica of primary server srv is usable
// again, charging the wait to the current operation span as retry time. It
// returns false when every replica is permanently gone (recovery given up,
// object absent, or — for reads — stale), the ErrAllReplicasDown case.
func (d *striped) waitRecovery(p *sim.Proc, w work, srv int, forRead bool) bool {
	st := d.striping
	for {
		dead := true
		for r := 0; r < st.R(); r++ {
			t := st.ReplicaServer(srv, r)
			if !w.present(t, r) {
				continue
			}
			if d.live(t, forRead) {
				return true
			}
			// A server under active re-silvering is excluded only until the
			// heal completes: readers wait it out rather than declaring the
			// unit dead.
			if !d.gaveUp[t] && (!(forRead && d.excluded[t]) || d.healing[t] != nil) {
				dead = false
			}
		}
		if dead {
			return false
		}
		// Recovery or a re-silver is in flight on some replica server: wait
		// for the first to settle, then re-evaluate.
		var fut *sim.Future[struct{}]
		for r := 0; r < st.R() && fut == nil; r++ {
			t := st.ReplicaServer(srv, r)
			if fut = d.episode[t]; fut == nil {
				fut = d.healing[t]
			}
		}
		if fut == nil {
			return false
		}
		t0 := p.Now()
		fut.Get(p)
		d.tr.Charge(trace.OpID(p.TraceCtx()), trace.CatRetry, p.Now()-t0)
	}
}
