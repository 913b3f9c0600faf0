package bench

import (
	"bytes"
	"fmt"

	"dafsio/internal/layout"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// T19 parameters: 8 clients stream 256KB reads over one shared striped
// file while the cluster grows from 3 to 4 servers mid-run. Eight
// clients put the cluster in T15's server-limited regime, where the
// extra server actually raises the aggregate ceiling (at 4 clients the
// client NICs are the wall and a join buys little). The regions are
// smaller than T15's because the interesting window is the re-silver,
// whose length the token bucket fixes, not the volume. The 25% floor is
// the acceptance bound on foreground bandwidth while the migrator's
// copy competes for the server NICs.
const (
	t19Clients = 8
	t19Servers = 3       // at build time; a fourth joins mid-run
	t19Per     = 1 << 20 // bytes in each client's region
	t19Passes  = 4       // read passes per steady phase
	t19Floor   = 0.25    // min foreground bandwidth under re-silver, as a fraction of steady

	// t19Rate is the re-silver budget: fast enough that the copy visibly
	// competes with foreground reads (the bounded dip the table shows),
	// slow enough that the floor holds with a wide margin. The bucket
	// charges the copy's reads, verifies, and writes, so the wire rate
	// is roughly a third of this.
	t19Rate = 256 << 20
)

// t19Expect writes prefill's pattern for absolute file offset abs: the
// logical byte at offset x is byte(x) on any layout width.
func t19Expect(buf []byte, abs int64) {
	for j := range buf {
		buf[j] = byte(abs + int64(j))
	}
}

// t19Result is one T19 run: aggregate read bandwidth before the join,
// during the re-silver, and after commit, with the window lengths. The
// embedded Result spans the whole run, at the post-commit bandwidth, and
// carries the read-back verdict.
type t19Result struct {
	Result
	SteadyMBps float64 // width-3 steady state, before the join
	DuringMBps float64 // foreground reads while the migrator copies
	PostMBps   float64 // width-4 steady state, after every client committed
	SteadyDur  sim.Time
	MigDur     sim.Time
	PostDur    sim.Time
	Epoch      uint32 // layout epoch after commit
}

// t19Run is the elastic-membership workload. Three phases, fenced by
// barriers so each bandwidth window is clean:
//
//  1. steady: every client reads its region t19Passes times at width 3.
//  2. join + re-silver: a fourth server joins (epoch 2), every client
//     dials the grown pool and prepares the reshape (client 0 first, so
//     the epoch-2 objects exist before the rest attach by lookup).
//     Client 0 spawns the migrator; every client keeps reading through
//     the old layout until the copy converges — that traffic is the
//     foreground bandwidth under re-silver.
//  3. commit + post: each client flips its driver (a local pointer
//     flip), client 0 removes the old epoch's objects, and the steady
//     read passes repeat at width 4.
//
// Read-back verification (outside every window) checks the migrated
// bytes against the prefill pattern.
func t19Run(o Observation) t19Result {
	const n = t19Clients
	st4 := layout.Striping{StripeSize: stripeSize, Width: t19Servers + 1}
	pt := point{id: "T19", clients: n, servers: t19Servers, stack: dafsStack, name: "t19", per: t19Per}
	c := newCluster(pt, o)

	ready := sim.NewWaitGroup(c.K, n)
	aDone := sim.NewWaitGroup(c.K, n)
	prepared := sim.NewWaitGroup(c.K, n)
	copied := sim.NewWaitGroup(c.K, n)
	committed := sim.NewWaitGroup(c.K, n)
	cleaned := sim.NewWaitGroup(c.K, n)
	joined := sim.NewFuture[uint32](c.K)
	firstPrep := sim.NewFuture[struct{}](c.K)
	migDone := sim.NewFuture[error](c.K)

	res := t19Result{Result: Result{ID: pt.id, Tracer: c.Tracer, Reg: c.Metrics}}
	var aStart, aEnd, mStart, mEnd, bStart, bEnd sim.Time
	var during int64 // foreground bytes read while the migrator ran

	err := c.SpawnClients(func(p *sim.Proc, i int) {
		f, d := open(p, c, pt, i)
		drv := d.(*mpiio.StripedDAFSDriver)
		drv.Resilver.Rate = t19Rate
		buf := make([]byte, stripeChunk)
		base := int64(i) * t19Per
		readPass := func() {
			for off := int64(0); off < t19Per; off += stripeChunk {
				if _, err := f.ReadAt(p, base+off, buf); err != nil {
					panic(err)
				}
			}
		}
		// Warm the registration cache and per-server handles.
		if _, err := f.ReadAt(p, base, buf); err != nil {
			panic(err)
		}
		ready.Done()
		ready.Wait(p)
		if aStart == 0 {
			aStart = p.Now()
		}
		for pass := 0; pass < t19Passes; pass++ {
			readPass()
		}
		if now := p.Now(); now > aEnd {
			aEnd = now
		}
		aDone.Done()
		aDone.Wait(p)

		// The fourth server joins and fences at the new epoch; everyone
		// dials the grown pool. Client 0 prepares first — its shadow
		// opens create the epoch-2 objects — then the rest attach.
		if i == 0 {
			_, epoch := c.AddServer()
			joined.Set(epoch)
		}
		epoch := joined.Get(p)
		pool4, err := c.DialDAFSAll(p, i, nil)
		if err != nil {
			panic(err)
		}
		if i != 0 {
			firstPrep.Get(p)
		}
		rs, err := drv.PrepareReshape(p, pool4, st4, epoch)
		if err != nil {
			panic(err)
		}
		if i == 0 {
			firstPrep.Set(struct{}{})
		}
		prepared.Done()
		prepared.Wait(p)
		if mStart == 0 {
			mStart = p.Now()
		}
		if i == 0 {
			c.K.Spawn("t19.migrator", func(mp *sim.Proc) { migDone.Set(rs.Migrate(mp)) })
		}
		var mine int64
		for off := int64(0); !migDone.Done(); off = (off + stripeChunk) % t19Per {
			nr, err := f.ReadAt(p, base+off, buf)
			if err != nil {
				panic(err)
			}
			mine += int64(nr)
		}
		during += mine
		if now := p.Now(); now > mEnd {
			mEnd = now
		}
		copied.Done()
		copied.Wait(p)
		if err := migDone.Get(p); err != nil {
			panic(err)
		}
		rs.Commit(p)
		res.Epoch = drv.LayoutEpoch()
		committed.Done()
		committed.Wait(p)
		if i == 0 {
			rs.Cleanup(p) // every participant committed; old objects go
		}
		cleaned.Done()
		cleaned.Wait(p)
		if bStart == 0 {
			bStart = p.Now()
		}
		for pass := 0; pass < t19Passes; pass++ {
			readPass()
		}
		if now := p.Now(); now > bEnd {
			bEnd = now
		}
		// Read-back verification outside the measured windows: the
		// migrated width-4 copy must be byte-identical to the pattern.
		want := make([]byte, stripeChunk)
		for off := int64(0); off < t19Per; off += stripeChunk {
			nr, err := f.ReadAt(p, base+off, buf)
			if err != nil {
				panic(err)
			}
			t19Expect(want, base+off)
			if nr != len(buf) || !bytes.Equal(buf, want) {
				res.corrupt = true
				break
			}
		}
		f.Close(p)
	})
	end(c, err)
	res.SteadyMBps = stats.MBps(int64(n)*t19Per*t19Passes, aEnd-aStart)
	res.SteadyDur = aEnd - aStart
	res.DuringMBps = stats.MBps(during, mEnd-mStart)
	res.MigDur = mEnd - mStart
	res.PostMBps = stats.MBps(int64(n)*t19Per*t19Passes, bEnd-bStart)
	res.PostDur = bEnd - bStart
	res.Start, res.End, res.MBps = aStart, bEnd, res.PostMBps
	res.Outcome = fmt.Sprintf("joined at epoch %d, re-silvered, verified", res.Epoch)
	if res.corrupt {
		res.Outcome = "CORRUPT read-back"
	}
	return res
}

// T19Elastic is the elastic-membership experiment: a live join, a
// background re-silver bounded by the token bucket, and the bandwidth
// ramp once the wider layout commits. The three rows are the three
// phases of one run.
func T19Elastic() *stats.Table {
	r := t19Run(Observation{})
	t := &stats.Table{
		ID:    "T19",
		Title: "Elastic membership: live server join with background re-silver (8 clients, 3 -> 4 servers, 256KB reads)",
		Note: "a fourth server joins mid-run and fences at epoch 2; one client re-silvers the file onto the width-4\n" +
			"layout through a 256MB/s token bucket while every client keeps reading the old layout (dual-writes\n" +
			"would cover mutations); commit is a local pointer flip per client, then the old epoch's objects are removed",
		Columns: []string{"phase", "width", "rd MB/s", "window", "outcome"},
	}
	floor := fmt.Sprintf("foreground %d%% of steady", int(100*r.DuringMBps/r.SteadyMBps+0.5))
	ramp := fmt.Sprintf("%+d%% vs steady", int(100*(r.PostMBps-r.SteadyMBps)/r.SteadyMBps+0.5))
	verdict := "verified byte-identical"
	if r.corrupt {
		verdict = "CORRUPT read-back"
	}
	t.AddRow("steady pre-join", "3", stats.BW(r.SteadyMBps), r.SteadyDur.String(), "epoch 1")
	t.AddRow("re-silver window", "3+1", stats.BW(r.DuringMBps), r.MigDur.String(), floor)
	t.AddRow(fmt.Sprintf("post-commit (epoch %d)", r.Epoch), "4", stats.BW(r.PostMBps), r.PostDur.String(), ramp+", "+verdict)
	return t
}
