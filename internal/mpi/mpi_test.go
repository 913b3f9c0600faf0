package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// world spins up n ranks on n nodes and runs fn on each; it fails the test
// on simulation errors.
func world(t *testing.T, n int, fn func(p *sim.Proc, r *Rank)) *sim.Kernel {
	t.Helper()
	prof := model.CLAN1998()
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	prov := via.NewProvider(fab)
	var nics []*via.NIC
	for i := 0; i < n; i++ {
		nics = append(nics, prov.NewNIC(fab.AddNode(fmt.Sprintf("n%d", i))))
	}
	w := NewWorld(nics)
	for i := 0; i < n; i++ {
		r := w.Rank(i)
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { fn(p, r) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

func mkdata(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i%127)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	want := mkdata(1000, 1)
	world(t, 2, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 7, want)
		case 1:
			buf := make([]byte, 1000)
			st := r.Recv(p, 0, 7, buf)
			if st.Count != 1000 || st.Source != 0 || st.Tag != 7 {
				t.Errorf("status %+v", st)
			}
			if !bytes.Equal(buf, want) {
				t.Error("eager data mismatch")
			}
		}
	})
}

func TestRendezvousSendRecv(t *testing.T) {
	const n = 200000 // far beyond eagerMax
	want := mkdata(n, 2)
	world(t, 2, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 9, want)
		case 1:
			buf := make([]byte, n)
			st := r.Recv(p, 0, 9, buf)
			if st.Count != n {
				t.Errorf("count %d", st.Count)
			}
			if !bytes.Equal(buf, want) {
				t.Error("rendezvous data mismatch")
			}
		}
	})
}

// Repeated rendezvous sends of one buffer between two ranks pin it
// through each NIC's registration cache: the first exchange adds one
// region at each end, the later ones register nothing (the next handle
// either NIC issues is the one it would have issued after the first), and
// each later round charges the same CPU, a registration or more below the
// first.
func TestRendezvousPinsOnce(t *testing.T) {
	const n, rounds = 64 << 10, 4
	prof := model.CLAN1998()
	world(t, 2, func(p *sim.Proc, r *Rank) {
		nic := r.NIC()
		buf := mkdata(n, byte(3+r.ID()))
		base := nic.Regions()
		// A costless probe registration names the next handle the NIC issues.
		next := func() via.MemHandle {
			reg := nic.RegisterCached(make([]byte, 1))
			nic.DropCached(reg)
			return reg.Handle
		}
		var busy [rounds]sim.Time
		var h via.MemHandle
		for i := range rounds {
			t0 := nic.Node.CPU.BusyTime()
			if r.ID() == 0 {
				r.Send(p, 1, 5, buf)
			} else if st := r.Recv(p, 0, 5, buf); st.Count != n {
				t.Errorf("round %d: received %d bytes", i, st.Count)
			}
			busy[i] = nic.Node.CPU.BusyTime() - t0
			if got := nic.Regions() - base; got != 1 || nic.PinsInUse() != 0 {
				t.Errorf("rank %d round %d: %d regions added (want 1), %d pins in use (want 0)", r.ID(), i, got, nic.PinsInUse())
			}
			if i == 0 {
				h = next()
			}
			r.Barrier(p)
		}
		if got := next() - h; got != 1 {
			t.Errorf("rank %d: rounds 1 to %d registered %d regions", r.ID(), rounds-1, got-1)
		}
		for i := 2; i < rounds; i++ {
			if busy[i] != busy[1] || busy[0]-busy[i] < prof.RegCost(n) {
				t.Errorf("rank %d round %d: %v of CPU, round 1 %v and round 0 %v (want round 1's, and %v or more below round 0's)",
					r.ID(), i, busy[i], busy[1], busy[0], prof.RegCost(n))
			}
		}
	})
}

func TestRecvBeforeSendAndAfter(t *testing.T) {
	// Both orderings: pre-posted receive and unexpected message.
	world(t, 2, func(p *sim.Proc, r *Rank) {
		buf := make([]byte, 100)
		switch r.ID() {
		case 0:
			p.Wait(100 * sim.Microsecond) // message 1 finds a posted recv
			r.Send(p, 1, 1, mkdata(100, 1))
			r.Send(p, 1, 2, mkdata(100, 2)) // message 2 arrives unexpected
		case 1:
			st := r.Recv(p, 0, 1, buf)
			if st.Count != 100 || !bytes.Equal(buf, mkdata(100, 1)) {
				t.Error("posted-recv path broken")
			}
			p.Wait(500 * sim.Microsecond)
			st = r.Recv(p, 0, 2, buf)
			if st.Count != 100 || !bytes.Equal(buf, mkdata(100, 2)) {
				t.Error("unexpected-queue path broken")
			}
		}
	})
}

func TestUnexpectedRendezvous(t *testing.T) {
	const n = 100000
	world(t, 2, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 3, mkdata(n, 3))
		case 1:
			p.Wait(2 * sim.Millisecond) // let the RTS arrive unexpected
			buf := make([]byte, n)
			st := r.Recv(p, 0, 3, buf)
			if st.Count != n || !bytes.Equal(buf, mkdata(n, 3)) {
				t.Error("unexpected rendezvous broken")
			}
		}
	})
}

func TestWildcards(t *testing.T) {
	world(t, 3, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 2, 5, []byte("from0"))
		case 1:
			p.Wait(sim.Millisecond)
			r.Send(p, 2, 6, []byte("from1"))
		case 2:
			buf := make([]byte, 5)
			st1 := r.Recv(p, AnySource, AnyTag, buf)
			if st1.Source != 0 || st1.Tag != 5 {
				t.Errorf("first wildcard recv %+v", st1)
			}
			st2 := r.Recv(p, 1, AnyTag, buf)
			if st2.Source != 1 || st2.Tag != 6 {
				t.Errorf("second recv %+v", st2)
			}
		}
	})
}

func TestMessageOrderingPerPair(t *testing.T) {
	world(t, 2, func(p *sim.Proc, r *Rank) {
		const k = 20
		switch r.ID() {
		case 0:
			for i := 0; i < k; i++ {
				r.Send(p, 1, 4, []byte{byte(i)})
			}
		case 1:
			buf := make([]byte, 1)
			for i := 0; i < k; i++ {
				r.Recv(p, 0, 4, buf)
				if buf[0] != byte(i) {
					t.Fatalf("message %d out of order (got %d)", i, buf[0])
				}
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	world(t, 1, func(p *sim.Proc, r *Rank) {
		r.Send(p, 0, 1, []byte("loop"))
		buf := make([]byte, 4)
		st := r.Recv(p, 0, 1, buf)
		if st.Count != 4 || string(buf) != "loop" {
			t.Errorf("self send: %+v %q", st, buf)
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	world(t, 2, func(p *sim.Proc, r *Rank) {
		const n = 50000
		switch r.ID() {
		case 0:
			a := r.Isend(p, 1, 1, mkdata(n, 1))
			b := r.Isend(p, 1, 2, mkdata(n, 2))
			a.Wait(p)
			b.Wait(p)
		case 1:
			b1, b2 := make([]byte, n), make([]byte, n)
			r.Recv(p, 0, 1, b1)
			r.Recv(p, 0, 2, b2)
			if !bytes.Equal(b1, mkdata(n, 1)) || !bytes.Equal(b2, mkdata(n, 2)) {
				t.Error("overlapped transfers corrupted")
			}
		}
	})
}

func TestManyEagerMessagesExceedCredits(t *testing.T) {
	// More in-flight sends than credits: flow control must throttle, not
	// deadlock or drop.
	world(t, 2, func(p *sim.Proc, r *Rank) {
		const k = eagerCredits * 3
		switch r.ID() {
		case 0:
			for i := 0; i < k; i++ {
				r.Send(p, 1, 1, mkdata(512, byte(i)))
			}
		case 1:
			p.Wait(5 * sim.Millisecond) // let sends pile up
			buf := make([]byte, 512)
			for i := 0; i < k; i++ {
				r.Recv(p, 0, 1, buf)
				if !bytes.Equal(buf, mkdata(512, byte(i))) {
					t.Fatalf("message %d corrupted", i)
				}
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var maxEnter, minExit sim.Time
	minExit = 1 << 62
	world(t, 4, func(p *sim.Proc, r *Rank) {
		p.Wait(sim.Time(r.ID()) * sim.Millisecond) // staggered arrival
		if now := p.Now(); now > maxEnter {
			maxEnter = now
		}
		r.Barrier(p)
		if now := p.Now(); now < minExit {
			minExit = now
		}
	})
	if minExit < maxEnter {
		t.Fatalf("a rank left the barrier (%v) before the last entered (%v)", minExit, maxEnter)
	}
}

func TestBcast(t *testing.T) {
	want := mkdata(3000, 9)
	world(t, 5, func(p *sim.Proc, r *Rank) {
		buf := make([]byte, 3000)
		if r.ID() == 2 {
			copy(buf, want)
		}
		r.Bcast(p, 2, buf)
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d bcast mismatch", r.ID())
		}
	})
}

// TestGatherAllgather: Allgather puts every rank's equally sized data in
// its slot of the result on every rank, for eager and rendezvous sizes.
func TestGatherAllgather(t *testing.T) {
	for _, size := range []int{300, eagerMax + 100} {
		world(t, 4, func(p *sim.Proc, r *Rank) {
			all := r.Allgather(p, mkdata(size, byte(r.ID())))
			if len(all) != 4*size {
				t.Fatalf("rank %d: allgather of %d bytes returned %d", r.ID(), size, len(all))
			}
			for i := 0; i < 4; i++ {
				if !bytes.Equal(all[i*size:(i+1)*size], mkdata(size, byte(i))) {
					t.Errorf("allgather of %d bytes: part %d mismatch at rank %d", size, i, r.ID())
				}
			}
		})
	}
}

func TestAllreduce(t *testing.T) {
	world(t, 4, func(p *sim.Proc, r *Rank) {
		v := int64(r.ID() + 1)
		if got := r.AllreduceI64(p, v, OpSum); got != 10 {
			t.Errorf("sum = %d", got)
		}
		if got := r.AllreduceI64(p, v, OpMin); got != 1 {
			t.Errorf("min = %d", got)
		}
		if got := r.AllreduceI64(p, v, OpMax); got != 4 {
			t.Errorf("max = %d", got)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	world(t, 4, func(p *sim.Proc, r *Rank) {
		send := make([][]byte, 4)
		for i := range send {
			send[i] = mkdata(100*(i+1)+r.ID(), byte(10*r.ID()+i))
		}
		recv := r.AlltoallvBytes(p, send)
		for j := 0; j < 4; j++ {
			want := mkdata(100*(r.ID()+1)+j, byte(10*j+r.ID()))
			if !bytes.Equal(recv[j], want) {
				t.Errorf("rank %d: block from %d mismatch", r.ID(), j)
			}
		}
	})
}

func TestAlltoallvLargeBlocks(t *testing.T) {
	// Rendezvous-path alltoallv (blocks above eagerMax).
	world(t, 3, func(p *sim.Proc, r *Rank) {
		send := make([][]byte, 3)
		for i := range send {
			send[i] = mkdata(60000, byte(10*r.ID()+i))
		}
		recv := r.AlltoallvBytes(p, send)
		for j := 0; j < 3; j++ {
			if !bytes.Equal(recv[j], mkdata(60000, byte(10*j+r.ID()))) {
				t.Errorf("rank %d large block from %d mismatch", r.ID(), j)
			}
		}
	})
}

func TestMpiDeterminism(t *testing.T) {
	run := func() string {
		var out string
		world(t, 3, func(p *sim.Proc, r *Rank) {
			for i := 0; i < 3; i++ {
				r.Barrier(p)
				v := r.AllreduceI64(p, int64(r.ID()*i), OpSum)
				if r.ID() == 0 {
					out += fmt.Sprintf("%d@%v ", v, p.Now())
				}
			}
		})
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestEagerMaxBoundary(t *testing.T) {
	world(t, 2, func(p *sim.Proc, r *Rank) {
		em := eagerMax
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, mkdata(em, 1))   // largest eager
			r.Send(p, 1, 2, mkdata(em+1, 2)) // smallest rendezvous
		case 1:
			b1 := make([]byte, em)
			b2 := make([]byte, em+1)
			r.Recv(p, 0, 1, b1)
			r.Recv(p, 0, 2, b2)
			if !bytes.Equal(b1, mkdata(em, 1)) || !bytes.Equal(b2, mkdata(em+1, 2)) {
				t.Error("boundary messages corrupted")
			}
		}
	})
}
