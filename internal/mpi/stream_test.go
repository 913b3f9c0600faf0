package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"dafsio/internal/sim"
)

// streamPayload is what rank from sends rank to in the streaming tests:
// empty from every rank to its successor, eager or rendezvous-sized
// otherwise.
func streamPayload(from, to, n int) []byte {
	if n > 1 && to == (from+1)%n {
		return nil
	}
	return mkdata([]int{300, 70000}[(from+to)%2], byte(16*from+to))
}

// TestAlltoallvStream pins the streaming all-to-all's hand-over order:
// this rank's own payload first, as send returned it (the same bytes, not
// a copy), then one step per peer — send(id+k) just before step k, then
// into(id-k) for the receive buffer, and recv(id-k) as the step completes
// with the payload in that buffer — with empty payloads handed over empty
// and n = 1 reduced to the own step.
func TestAlltoallvStream(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		world(t, n, func(p *sim.Proc, r *Rank) {
			me := r.ID()
			var events, want []string
			for k := 0; k < n; k++ {
				want = append(want, fmt.Sprintf("send %d", (me+k)%n))
				if k > 0 {
					want = append(want, fmt.Sprintf("into %d", (me-k+n)%n))
				}
				want = append(want, fmt.Sprintf("recv %d", (me-k+n)%n))
			}
			own := streamPayload(me, me, n)
			bufs := make([][]byte, n)
			r.AlltoallvStream(p, func(dst int) []byte {
				events = append(events, fmt.Sprintf("send %d", dst))
				if dst == me {
					return own
				}
				return streamPayload(me, dst, n)
			}, func(src, size int) []byte {
				events = append(events, fmt.Sprintf("into %d", src))
				bufs[src] = make([]byte, size+8) // room to spare: recv gets it cut to size
				return bufs[src]
			}, func(src int, data []byte) {
				events = append(events, fmt.Sprintf("recv %d", src))
				if !bytes.Equal(data, streamPayload(src, me, n)) {
					t.Errorf("n=%d rank %d: payload from %d differs (%d bytes)", n, me, src, len(data))
				}
				if src == me && &data[0] != &own[0] {
					t.Errorf("n=%d rank %d: own payload handed over as a copy", n, me)
				}
				if src != me && len(data) > 0 && &data[0] != &bufs[src][0] {
					t.Errorf("n=%d rank %d: payload from %d not in the buffer into returned", n, me, src)
				}
			})
			if fmt.Sprint(events) != fmt.Sprint(want) {
				t.Errorf("n=%d rank %d: callbacks %v, want %v", n, me, events, want)
			}
		})
	}
}

// TestAlltoallvBytesEndInstant pins AlltoallvBytes's simulated timing, the
// own copy and every pairwise step. Its buffers are fresh, so every
// rendezvous pin misses; since rendezvous pins through the registration
// cache no Unpin deregisters, and the run ends 20 µs (two MemDeregCost)
// before the 1,056,852 ns it ended at when each message registered and
// deregistered its buffers: exactly where per-message registration ends
// with MemDeregCost set to 0.
func TestAlltoallvBytesEndInstant(t *testing.T) {
	const n = 4
	var end sim.Time
	world(t, n, func(p *sim.Proc, r *Rank) {
		send := make([][]byte, n)
		for dst := range send {
			send[dst] = streamPayload(r.ID(), dst, n)
		}
		recv := r.AlltoallvBytes(p, send)
		for src, got := range recv {
			if !bytes.Equal(got, streamPayload(src, r.ID(), n)) {
				t.Errorf("rank %d: payload from %d differs", r.ID(), src)
			}
		}
		end = max(end, p.Now())
	})
	if want := sim.Time(1036852); end != want {
		t.Errorf("AlltoallvBytes ended at %v (%d), want %d", end, int64(end), int64(want))
	}
}
