package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// countRounds builds a world of n ranks and runs round on every rank warm
// + extra + 1 times. It returns the heap allocations the process made
// while rank 0 ran the extra rounds (each round ends in a barrier, so the
// other ranks run theirs in the same window, give or take the barrier's
// tail).
func countRounds(t *testing.T, n, warm, extra int, round func(p *sim.Proc, r *Rank)) uint64 {
	t.Helper()
	// One P: the kernel runs one goroutine at a time anyway, and with more
	// a hand-over between goroutines on different Ps refills a P's cache of
	// channel waiters, a few allocations that belong to no message.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	prof := model.CLAN1998()
	k := sim.NewKernel()
	defer k.Shutdown()
	fab := fabric.New(k, prof)
	prov := via.NewProvider(fab)
	nics := make([]*via.NIC, n)
	for i := range nics {
		nics[i] = prov.NewNIC(fab.AddNode(fmt.Sprintf("n%d", i)))
	}
	w := NewWorld(nics)
	for i := 0; i < n; i++ {
		r := w.Rank(i)
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			// One more round closes the window, so no rank has ended in it.
			for j := range warm + extra + 1 {
				switch {
				case i != 0:
				case j == warm:
					runtime.GC() // so no collection's own set-up lands in the window
					runtime.ReadMemStats(&m0)
				case j == warm+extra:
					runtime.ReadMemStats(&m1)
				}
				round(p, r)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestMessageAllocs counts the heap allocations of a message once the
// rank's records exist: after two warm rounds (which fill the free lists,
// the pools and the kernel's worker goroutines; the posted exchange holds
// the most records at once only from its second round on, and after one
// warm round it counted 14 allocations in 16 rounds), the allocations of the
// next rounds divided by the messages they send. Each path is a round of
// its own: eager Send and Recv, one arrival finding its receive posted and
// one arriving unexpected; a rendezvous Sendrecv each way, whose pulls run
// in a spawned proc on one side and in the receiving proc on the other,
// each answered by a FIN; AlltoallvStream and Alltoallv over four ranks,
// eager and rendezvous payloads, each receive buffer sized from its
// envelope by an into bound once; and an AllreduceI64 followed by a
// Barrier. A message counts as one Send, the collectives' own included.
//
// Every path records 0 allocations per message, the top of three runs
// whole test and alone, so the budget is 0 (+ 2%). Before requests,
// receives, pulls, envelopes and descriptors were records of the rank,
// each message allocated its descriptor, completion context, request or
// posted receive with its future, proc name and closure, and its envelope
// copies; the gather collectives allocated their results per call.
func TestMessageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	eager := func(p *sim.Proc, r *Rank) {
		buf := eagerIn[:]
		switch r.ID() {
		case 0:
			p.Wait(50 * sim.Microsecond) // the first send finds its receive posted
			r.Send(p, 1, 1, eagerData[0])
			r.Send(p, 1, 2, eagerData[1])
		case 1:
			r.Recv(p, 0, 1, buf)
			p.Wait(200 * sim.Microsecond) // the second arrives unexpected
			r.Recv(p, 0, 2, buf)
		}
		r.Barrier(p)
	}
	rndv := func(p *sim.Proc, r *Rank) {
		if r.ID() == 1 {
			p.Wait(100 * sim.Microsecond) // rank 0's RTS arrives unexpected here
		}
		r.Sendrecv(p, 1-r.ID(), 3, rndvData[r.ID()], 1-r.ID(), 3, rndvIn[r.ID()])
		r.Barrier(p)
	}
	a2a := func(p *sim.Proc, r *Rank) {
		a2aRound(p, r, (*Comm).AlltoallvStream)
		r.Barrier(p)
	}
	a2aPosted := func(p *sim.Proc, r *Rank) {
		a2aRound(p, r, (*Comm).Alltoallv)
		r.Barrier(p)
	}
	reduce := func(p *sim.Proc, r *Rank) {
		if got := r.AllreduceI64(p, int64(r.ID()), OpSum); got != 6 {
			t.Errorf("rank %d: allreduce %d, want 6", r.ID(), got)
		}
		r.Barrier(p)
	}
	for _, tc := range []struct {
		name  string
		ranks int
		msgs  int // sends of one round, the closing barrier's included
		round func(p *sim.Proc, r *Rank)
	}{
		{"eager", 2, 2 + 2, eager},
		{"rendezvous", 2, 2 + 2, rndv},
		{"alltoallv", 4, 4*3 + 8, a2a},
		{"alltoallv-posted", 4, 4*3 + 8, a2aPosted},
		{"allreduce", 4, 4*3 + 8, reduce},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const extra = 16
			m := countRounds(t, tc.ranks, 2, extra, tc.round)
			perMsg := float64(m) / float64(extra*tc.msgs)
			if budget := 0 * 1.02; perMsg > budget {
				t.Errorf("a message makes %.4f heap allocations (%d in %d messages), budget %.4f", perMsg, m, extra*tc.msgs, budget)
			} else {
				t.Logf("a message makes %.4f heap allocations (%d in %d messages)", perMsg, m, extra*tc.msgs)
			}
		})
	}
}

// The payloads of TestMessageAllocs, made once so a round allocates none.
var (
	eagerData = [2][]byte{mkdata(1000, 1), mkdata(1000, 2)}
	eagerIn   [1000]byte
	rndvData  = [2][]byte{mkdata(64<<10, 3), mkdata(64<<10, 4)}
	rndvIn    = [2][]byte{make([]byte, 64<<10), make([]byte, 64<<10)}
	a2aOut    = func() (out [4][4][]byte) {
		for from := range out {
			for to := range out[from] {
				out[from][to] = streamPayload(from, to, 4)
			}
		}
		return out
	}()
	a2aIn [4][4][]byte
	// a2aInto is each rank's receive-buffer source, bound once: a closure
	// made per round would be an allocation the exchange holds.
	a2aInto = func() (into [4]func(src, n int) []byte) {
		for me := range into {
			into[me] = func(src, n int) []byte {
				if cap(a2aIn[me][src]) < n {
					a2aIn[me][src] = make([]byte, n)
				}
				return a2aIn[me][src]
			}
		}
		return into
	}()
)

// a2aRound is one all-to-all of a2aOut over four ranks, streamed or
// posted, receiving into buffers the rank keeps from round to round.
func a2aRound(p *sim.Proc, r *Rank, exchange func(c *Comm, p *sim.Proc, send func(int) []byte, into func(int, int) []byte, recv func(int, []byte))) {
	me := r.ID()
	exchange(&r.Comm, p, func(dst int) []byte { return a2aOut[me][dst] }, a2aInto[me], func(int, []byte) {})
}

// TestConcurrentRequestsOnOneRank runs two helper procs on rank 0 at once,
// each a run of Sendrecvs with one peer — eager with rank 1, rendezvous
// with rank 2 — started at the same instants, beside rank 0's own
// AnySource receives of what ranks 1 and 3 send on a tag of their own. Every round changes the payloads, so a
// request, receive, pull or envelope record that carried one message's
// state into the next shows as a wrong byte or a wrong status; and every
// pin and every unexpected message's eager copy is given back at rest.
func TestConcurrentRequestsOnOneRank(t *testing.T) {
	const (
		rounds      = 6
		small, big  = 700, 40 << 10
		tagE, tagR  = 1, 2
		tagAny      = 3
		anyPerPeer  = rounds
		anyPayloadN = 300
	)
	payload := func(n, from, to, round int) []byte { return mkdata(n, byte(31*from+7*to+round)) }
	check := func(who string, st RecvStatus, src, tag int, got, want []byte) {
		t.Helper()
		if st.Source != src || st.Tag != tag || st.Count != len(want) {
			t.Errorf("%s: status %+v, want source %d tag %d count %d", who, st, src, tag, len(want))
		}
		if !bytes.Equal(got[:st.Count], want) {
			t.Errorf("%s: payload differs", who)
		}
	}
	// exchange is one side's run of Sendrecvs with peer, round i starting
	// at i*period, so rank 0's two helpers start each round's requests at
	// the same instant, one while the other's is in flight.
	const period = 2 * sim.Millisecond
	exchange := func(p *sim.Proc, r *Rank, peer, n, tag int) {
		in := make([]byte, n)
		for i := range rounds {
			if d := sim.Time(i)*period - p.Now(); d > 0 {
				p.Wait(d)
			}
			st := r.Sendrecv(p, peer, tag, payload(n, r.ID(), peer, i), peer, tag, in)
			check(fmt.Sprintf("rank %d round %d from %d", r.ID(), i, peer), st, peer, tag, in, payload(n, peer, r.ID(), i))
		}
	}
	var nics []*via.NIC
	world(t, 4, func(p *sim.Proc, r *Rank) {
		nics = append(nics, r.NIC())
		switch r.ID() {
		case 0:
			wg := sim.NewWaitGroup(p.Kernel(), 2)
			p.Spawn("eager", func(hp *sim.Proc) { exchange(hp, r, 1, small, tagE); wg.Done() })
			p.Spawn("rndv", func(hp *sim.Proc) { exchange(hp, r, 2, big, tagR); wg.Done() })
			buf := make([]byte, anyPayloadN)
			next := map[int]int{1: 0, 3: 0}
			for range 2 * anyPerPeer {
				st := r.Recv(p, AnySource, tagAny, buf)
				i := next[st.Source]
				next[st.Source]++
				check(fmt.Sprintf("AnySource receive %d from %d", i, st.Source), st, st.Source, tagAny, buf, payload(anyPayloadN, st.Source, 0, i))
			}
			wg.Wait(p)
		case 1:
			p.Spawn("any", func(hp *sim.Proc) {
				for i := range anyPerPeer {
					r.Send(hp, 0, tagAny, payload(anyPayloadN, 1, 0, i))
				}
			})
			exchange(p, r, 0, small, tagE)
		case 2:
			exchange(p, r, 0, big, tagR)
		case 3:
			for i := range anyPerPeer {
				p.Wait(30 * sim.Microsecond)
				r.Send(p, 0, tagAny, payload(anyPayloadN, 3, 0, i))
			}
		}
	})
	for i, nic := range nics {
		if n := nic.PinsInUse(); n != 0 {
			t.Errorf("NIC %d: %d pins in use at rest", i, n)
		}
	}
	if m := nics[0].Provider().RingMem(); m.Held != 0 {
		t.Errorf("%d bytes of eager copies not given back at rest", m.Held)
	}
}

// TestReqWaitedTwicePanics: Wait gives a request's record back to its
// rank, so a second Wait on the handle panics, as a DAFS call waited twice
// does.
func TestReqWaitedTwicePanics(t *testing.T) {
	world(t, 2, func(p *sim.Proc, r *Rank) {
		peer := 1 - r.ID()
		req := r.Isend(p, peer, 1, []byte("x"))
		r.Recv(p, peer, 1, make([]byte, 1))
		req.Wait(p)
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: a second Wait did not panic", r.ID())
			}
		}()
		req.Wait(p)
	})
}

// TestCollectivesOnTwoCommsAtOnce runs collectives on two communicators of
// the same ranks at once, each in a helper proc of its own on every rank,
// beside the world's: all-gathers of round-sized blobs, all-to-alls (eager
// on one, rendezvous on the other) and reductions. The two communicators
// number their collectives alike, so their tags are equal, and a rank's
// helpers start their rounds at staggered instants, so the two interleave
// differently on every rank. Each result must be its own communicator's:
// a message matched across contexts, or a size word or gathered buffer
// shared between calls, shows as a wrong byte, a wrong sum or a deadlock.
func TestCollectivesOnTwoCommsAtOnce(t *testing.T) {
	const n, rounds = 4, 5
	blob := func(comm, rank, round int) []byte {
		return mkdata(10+comm*50+round, byte(comm*67+rank*13+round))
	}
	block := func(comm, src, dst, round int) []byte {
		size := 100 + src*10 + dst + round
		if comm == 1 {
			size += eagerMax // rendezvous
		}
		return mkdata(size, byte(comm*41+src*5+dst*3+round))
	}
	run := func(p *sim.Proc, c *Comm, id, comm int) {
		for i := range rounds {
			p.Wait(sim.Time(1+(id*3+comm*5)%7) * 10 * sim.Microsecond)
			m := len(blob(comm, id, i))
			all := c.Allgather(p, blob(comm, id, i))
			for src := range n {
				if !bytes.Equal(all[src*m:(src+1)*m], blob(comm, src, i)) {
					t.Errorf("comm %d rank %d round %d: gathered blob of %d differs", comm, id, i, src)
				}
			}
			c.AlltoallvStream(p, func(dst int) []byte { return block(comm, id, dst, i) },
				func(_, size int) []byte { return make([]byte, size) },
				func(src int, data []byte) {
					if !bytes.Equal(data, block(comm, src, id, i)) {
						t.Errorf("comm %d rank %d round %d: block from %d differs", comm, id, i, src)
					}
				})
			if sum, want := c.AllreduceI64(p, int64(comm*100+id+i), OpSum), int64(n*(comm*100+i)+n*(n-1)/2); sum != want {
				t.Errorf("comm %d rank %d round %d: sum %d, want %d", comm, id, i, sum, want)
			}
		}
	}
	world(t, n, func(p *sim.Proc, r *Rank) {
		var comms [2]Comm
		r.Dup(&comms[0])
		r.Dup(&comms[1])
		wg := sim.NewWaitGroup(p.Kernel(), 2)
		for k := range comms {
			p.Spawn("coll", func(hp *sim.Proc) { run(hp, &comms[k], r.ID(), k); wg.Done() })
		}
		for i := range rounds {
			if got := r.AllgatherU64(p, uint64(r.ID()*1000+i)); got[n-1] != uint64((n-1)*1000+i) {
				t.Errorf("world rank %d round %d: gathered %v", r.ID(), i, got)
			}
		}
		wg.Wait(p)
	})
}
