package kstack

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"dafsio/internal/fabric"
	"dafsio/internal/model"
	"dafsio/internal/sim"
)

type duo struct {
	k      *sim.Kernel
	prof   *model.Profile
	fab    *fabric.Fabric
	sa, sb *Stack
	na, nb *fabric.Node
}

func newDuo() *duo {
	prof := model.CLAN1998()
	k := sim.NewKernel()
	fab := fabric.New(k, prof)
	na, nb := fab.AddNode("a"), fab.AddNode("b")
	return &duo{k: k, prof: prof, fab: fab,
		sa: New(na, prof, k), sb: New(nb, prof, k), na: na, nb: nb}
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 13 % 251)
	}
	return b
}

func TestDatagramRoundTrip(t *testing.T) {
	d := newDuo()
	want := payload(10000) // multi-packet
	d.k.Spawn("rx", func(p *sim.Proc) {
		sock, err := d.sb.Socket(2049)
		if err != nil {
			t.Error(err)
			return
		}
		dg, ok := sock.Recv(p)
		if !ok {
			t.Error("recv failed")
			return
		}
		if !bytes.Equal(dg.Data, want) {
			t.Error("data mismatch")
		}
		if dg.Src != d.na.ID {
			t.Errorf("src %v", dg.Src)
		}
	})
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		if err := sock.SendTo(p, d.nb.ID, 2049, want); err != nil {
			t.Error(err)
		}
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthDatagram(t *testing.T) {
	d := newDuo()
	d.k.Spawn("rx", func(p *sim.Proc) {
		sock, _ := d.sb.Socket(7)
		dg, ok := sock.Recv(p)
		if !ok || len(dg.Data) != 0 {
			t.Errorf("zero dgram: ok=%v len=%d", ok, len(dg.Data))
		}
	})
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		sock.SendTo(p, d.nb.ID, 7, nil)
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedDatagramRejected(t *testing.T) {
	d := newDuo()
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		if err := sock.SendTo(p, d.nb.ID, 7, make([]byte, MaxDatagram+1)); err == nil {
			t.Error("oversized datagram accepted")
		}
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPortManagement(t *testing.T) {
	d := newDuo()
	s1, err := d.sa.Socket(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.sa.Socket(100); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	e1, _ := d.sa.Socket(0)
	e2, _ := d.sa.Socket(0)
	if e1.Port() == e2.Port() {
		t.Fatal("ephemeral ports collide")
	}
	s1.Close()
	if _, err := d.sa.Socket(100); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	_ = d.k.Run()
}

func TestUnknownPortDropped(t *testing.T) {
	d := newDuo()
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		sock.SendTo(p, d.nb.ID, 9999, payload(100))
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err) // must terminate cleanly, datagram dropped
	}
}

// TestKernelPathBurnsCPU is the baseline's defining property: moving a
// megabyte costs both CPUs a per-byte price (copies, packet processing,
// interrupts), unlike the VIA path.
func TestKernelPathBurnsCPU(t *testing.T) {
	d := newDuo()
	const n = 32 * 1024
	d.k.Spawn("rx", func(p *sim.Proc) {
		sock, _ := d.sb.Socket(2049)
		for i := 0; i < 8; i++ {
			sock.Recv(p)
		}
	})
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		for i := 0; i < 8; i++ {
			sock.SendTo(p, d.nb.ID, 2049, payload(n))
		}
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(8 * n)
	// Sender: at least the user->kernel copy.
	minTx := d.prof.CopyTime(int(total))
	if busy := d.na.CPU.BusyTime(); busy < minTx {
		t.Fatalf("sender CPU %v, want >= %v", busy, minTx)
	}
	// Receiver: copies plus interrupts.
	pkts := d.sb.PktsIn
	minRx := d.prof.CopyTime(int(total)) + sim.Time(pkts)*d.prof.InterruptCost
	if busy := d.nb.CPU.BusyTime(); busy < minRx {
		t.Fatalf("receiver CPU %v, want >= %v", busy, minRx)
	}
	if pkts < total/int64(d.prof.EthMTU) {
		t.Fatalf("only %d packets for %d bytes", pkts, total)
	}
}

func TestManyDatagramsOrdered(t *testing.T) {
	d := newDuo()
	var got []int
	d.k.Spawn("rx", func(p *sim.Proc) {
		sock, _ := d.sb.Socket(5)
		for i := 0; i < 20; i++ {
			dg, _ := sock.Recv(p)
			got = append(got, int(dg.Data[0]))
		}
	})
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		for i := 0; i < 20; i++ {
			sock.SendTo(p, d.nb.ID, 5, []byte{byte(i), 1, 2, 3})
		}
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestKstackDeterminism(t *testing.T) {
	run := func() string {
		d := newDuo()
		var s string
		d.k.Spawn("rx", func(p *sim.Proc) {
			sock, _ := d.sb.Socket(5)
			for i := 0; i < 5; i++ {
				dg, _ := sock.Recv(p)
				s += fmt.Sprintf("%d@%v ", len(dg.Data), p.Now())
			}
		})
		d.k.Spawn("tx", func(p *sim.Proc) {
			sock, _ := d.sa.Socket(0)
			for i := 1; i <= 5; i++ {
				sock.SendTo(p, d.nb.ID, 5, payload(i*1000))
			}
		})
		if err := d.k.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

// TestSmallAfterLargeCarriesOwnBytes: reassembly buffers are recycled, so a
// small datagram lands in the buffer a large one just left. It must carry
// only its own bytes, through Recv and through RecvFrom into a user buffer
// the large datagram filled; a user buffer shorter than the datagram gets a
// truncated copy.
func TestSmallAfterLargeCarriesOwnBytes(t *testing.T) {
	d := newDuo()
	large, small := payload(20000), []byte{7, 8, 9}
	d.k.Spawn("rx", func(p *sim.Proc) {
		sock, _ := d.sb.Socket(5)
		user := make([]byte, MaxDatagram)
		for _, recv := range []func() Datagram{
			func() Datagram { dg, _ := sock.Recv(p); return dg },
			func() Datagram { dg, _ := sock.RecvFrom(p, user); return dg },
		} {
			if dg := recv(); !bytes.Equal(dg.Data, large) {
				t.Errorf("large datagram: got %d bytes", len(dg.Data))
			}
			if dg := recv(); !bytes.Equal(dg.Data, small) {
				t.Errorf("small datagram after a large one: got %d bytes %v", len(dg.Data), dg.Data[:min(8, len(dg.Data))])
			}
		}
		dg, ok := sock.RecvFrom(p, user[:100])
		if !ok || !bytes.Equal(dg.Data, large[:100]) {
			t.Errorf("short user buffer: ok=%v, got %d bytes", ok, len(dg.Data))
		}
	})
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		for _, m := range [][]byte{large, small, large, small, large} {
			if err := sock.SendTo(p, d.nb.ID, 5, m); err != nil {
				t.Error(err)
			}
		}
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedSendersReassemble: two hosts stream multi-packet datagrams
// to one socket at once, so their fragments interleave on the receiver's
// link and two datagrams are in reassembly together. From the second round
// on every datagram reassembles in a recycled buffer, and each arrives
// intact and in its sender's order.
func TestInterleavedSendersReassemble(t *testing.T) {
	d := newDuo()
	nc := d.fab.AddNode("c")
	sc := New(nc, d.prof, d.k)
	const rounds = 6
	msg := func(src fabric.NodeID, i int) []byte {
		b := make([]byte, 6000+977*i+131*int(src))
		for j := range b {
			b[j] = byte(int(src)*101 + i*7 + j*13)
		}
		return b
	}
	d.k.Spawn("rx", func(p *sim.Proc) {
		sock, _ := d.sb.Socket(5)
		next := map[fabric.NodeID]int{}
		for range 2 * rounds {
			dg, ok := sock.Recv(p)
			if !ok {
				t.Error("socket closed")
				return
			}
			if want := msg(dg.Src, next[dg.Src]); !bytes.Equal(dg.Data, want) {
				t.Errorf("datagram %d from %v: %d bytes, want %d, or content differs", next[dg.Src], dg.Src, len(dg.Data), len(want))
			}
			next[dg.Src]++
		}
	})
	for _, st := range []*Stack{d.sa, sc} {
		d.k.Spawn("tx."+st.Node.Name, func(p *sim.Proc) {
			sock, _ := st.Socket(0)
			for i := range rounds {
				if err := sock.SendTo(p, d.nb.ID, 5, msg(st.Node.ID, i)); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.sb.freeBufs); got < 2 || got >= 2*rounds {
		t.Errorf("receiver holds %d reassembly buffers after %d datagrams: want at least 2 (two in reassembly at once) and fewer than one each", got, 2*rounds)
	}
}

// TestPacketsReturnToSender: a packet goes back to the stack that sent it
// once the receiver has copied it into reassembly. A sender that waits for
// an echo before each datagram therefore needs exactly one datagram's worth
// of packets, however many it sends, and none of them end up with the
// receiver.
func TestPacketsReturnToSender(t *testing.T) {
	d := newDuo()
	const n, rounds = 10000, 8
	d.k.Spawn("echo", func(p *sim.Proc) {
		sock, _ := d.sb.Socket(5)
		for range rounds {
			dg, _ := sock.Recv(p)
			sock.SendTo(p, dg.Src, dg.SrcPort, []byte{1})
		}
	})
	d.k.Spawn("tx", func(p *sim.Proc) {
		sock, _ := d.sa.Socket(0)
		for range rounds {
			if err := sock.SendTo(p, d.nb.ID, 5, payload(n)); err != nil {
				t.Error(err)
			}
			sock.Recv(p)
		}
	})
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
	per := (n + d.sa.mtuData - 1) / d.sa.mtuData
	if got := len(d.sa.freePkts); got != per {
		t.Errorf("sender's pool holds %d packets after %d sent, want %d (one datagram's worth)", got, d.sa.PktsOut, per)
	}
	if got := len(d.sb.freePkts); got != 1 {
		t.Errorf("echo's pool holds %d packets, want 1 (its own one-packet replies)", got)
	}
	for _, pk := range d.sa.freePkts {
		if pk.owner != d.sa {
			t.Fatal("a packet came back to a stack that did not send it")
		}
	}
}

// Property: any datagram size (0..several MTUs) survives fragmentation and
// reassembly byte-for-byte.
func TestFragmentationRoundTripProperty(t *testing.T) {
	prop := func(seed byte, szRaw uint16) bool {
		size := int(szRaw) % (4 * 1500)
		d := newDuo()
		want := make([]byte, size)
		for i := range want {
			want[i] = seed + byte(i)
		}
		okCh := true
		d.k.Spawn("rx", func(p *sim.Proc) {
			sock, _ := d.sb.Socket(9)
			dg, ok := sock.Recv(p)
			if !ok || !bytes.Equal(dg.Data, want) {
				okCh = false
			}
		})
		d.k.Spawn("tx", func(p *sim.Proc) {
			sock, _ := d.sa.Socket(0)
			if err := sock.SendTo(p, d.nb.ID, 9, want); err != nil {
				okCh = false
			}
		})
		if err := d.k.Run(); err != nil {
			return false
		}
		return okCh
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
