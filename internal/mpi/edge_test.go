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

func TestLargeSelfSend(t *testing.T) {
	const n = 500000 // far beyond eagerMax; self path copies locally
	world(t, 1, func(p *sim.Proc, r *Rank) {
		want := mkdata(n, 4)
		r.Send(p, 0, 2, want)
		got := make([]byte, n)
		st := r.Recv(p, 0, 2, got)
		if st.Count != n || !bytes.Equal(got, want) {
			t.Errorf("large self send: count=%d", st.Count)
		}
	})
}

func TestSendrecvWithSelf(t *testing.T) {
	world(t, 1, func(p *sim.Proc, r *Rank) {
		out := []byte("ping")
		in := make([]byte, 4)
		st := r.Sendrecv(p, 0, 3, out, 0, 3, in)
		if st.Count != 4 || string(in) != "ping" {
			t.Errorf("self sendrecv: %+v %q", st, in)
		}
	})
}

func TestRendezvousTruncation(t *testing.T) {
	// Receiver's buffer is smaller than the rendezvous message: the pull
	// takes the prefix and still FINs the sender.
	world(t, 2, func(p *sim.Proc, r *Rank) {
		const n = 100000
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, mkdata(n, 5)) // must not hang on the FIN
		case 1:
			buf := make([]byte, n/2)
			st := r.Recv(p, 0, 1, buf)
			if st.Count != n/2 {
				t.Errorf("truncated count %d", st.Count)
			}
			if !bytes.Equal(buf, mkdata(n, 5)[:n/2]) {
				t.Error("truncated prefix mismatch")
			}
		}
	})
}

func TestEagerTruncation(t *testing.T) {
	world(t, 2, func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, mkdata(1000, 6))
		case 1:
			buf := make([]byte, 100)
			st := r.Recv(p, 0, 1, buf)
			if st.Count != 100 || !bytes.Equal(buf, mkdata(1000, 6)[:100]) {
				t.Errorf("eager truncation: count=%d", st.Count)
			}
		}
	})
}

func TestCollectivesSizeOne(t *testing.T) {
	world(t, 1, func(p *sim.Proc, r *Rank) {
		r.Barrier(p)
		b := []byte("solo")
		r.Bcast(p, 0, b)
		if got := r.AllreduceI64(p, 42, OpSum); got != 42 {
			t.Errorf("allreduce solo = %d", got)
		}
		all := r.Allgather(p, []byte("x"))
		if string(all) != "x" {
			t.Errorf("allgather solo = %q", all)
		}
		recv := r.AlltoallvBytes(p, [][]byte{[]byte("y")})
		if len(recv) != 1 || string(recv[0]) != "y" {
			t.Errorf("alltoallv solo = %q", recv)
		}
	})
}

func TestNegativeUserTagPanics(t *testing.T) {
	world(t, 1, func(p *sim.Proc, r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("negative tag did not panic")
			}
		}()
		r.Send(p, 0, -5, []byte("x"))
	})
}

func TestZeroByteCollectives(t *testing.T) {
	world(t, 3, func(p *sim.Proc, r *Rank) {
		if all := r.Allgather(p, nil); len(all) != 0 {
			t.Errorf("empty allgather has %d bytes", len(all))
		}
		send := make([][]byte, 3)
		recv := r.AlltoallvBytes(p, send)
		for i, part := range recv {
			if len(part) != 0 {
				t.Errorf("empty alltoallv part %d has %d bytes", i, len(part))
			}
		}
	})
}

func TestManyRanksBarrierNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		world(t, n, func(p *sim.Proc, r *Rank) {
			for i := 0; i < 3; i++ {
				r.Barrier(p)
			}
		})
	}
}

// worldNICs builds n NIC-equipped nodes without running anything.
func worldNICs(t *testing.T, n int) []*via.NIC {
	t.Helper()
	prof := model.CLAN1998()
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	prov := via.NewProvider(fab)
	var nics []*via.NIC
	for i := 0; i < n; i++ {
		nics = append(nics, prov.NewNIC(fab.AddNode(fmt.Sprintf("w%d", i))))
	}
	return nics
}

// TestWildcardSkipsCollectives: collectives run in a hidden context, so a
// receive of (AnySource, AnyTag) posted beside a Barrier and an
// AllreduceI64 takes neither's messages and gets rank 1's tag-7 message.
func TestWildcardSkipsCollectives(t *testing.T) {
	world(t, 3, func(p *sim.Proc, r *Rank) {
		var got RecvStatus
		buf := make([]byte, 5)
		done := sim.NewWaitGroup(p.Kernel(), 1)
		if r.ID() == 0 {
			p.Spawn("wildcard", func(hp *sim.Proc) { got = r.Recv(hp, AnySource, AnyTag, buf); done.Done() })
		} else {
			done.Done()
		}
		r.Barrier(p)
		if sum := r.AllreduceI64(p, int64(r.ID()), OpSum); sum != 3 {
			t.Errorf("rank %d: sum %d, want 3", r.ID(), sum)
		}
		if r.ID() == 1 {
			r.Send(p, 0, 7, []byte("hello"))
		}
		done.Wait(p)
		if r.ID() == 0 && (got.Source != 1 || got.Tag != 7 || string(buf[:got.Count]) != "hello") {
			t.Errorf("wildcard receive got %+v %q, want rank 1's tag-7 hello", got, buf[:got.Count])
		}
	})
}
