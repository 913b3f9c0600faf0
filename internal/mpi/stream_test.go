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

// TestAlltoallvBytesEndInstant pins AlltoallvBytes's simulated timing: the
// posted exchange, every receive posted before any send starts, with the
// own copy after the sends. Its buffers are fresh, so every rendezvous pin
// misses. The run ended at 1,036,852 ns when AlltoallvBytes was the
// one-step-at-a-time stream with a size message ahead of each payload;
// posted whole, with the envelope sizing each receive and the four ranks'
// pulls from their three peers overlapped, it ends at 977,934 ns.
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
	if want := sim.Time(977934); end != want {
		t.Errorf("AlltoallvBytes ended at %v (%d), want %d", end, int64(end), int64(want))
	}
}

// TestEnvelopeSizedReceive: a receive made with into gets its buffer from
// the matched message's envelope — into(src, n) is called once, with the
// payload's size — for an empty payload, the largest eager one and a
// rendezvous one, each posted before the message arrives (matched by the
// arrival) and after (taken from the unexpected queue). The payload lands
// in into's buffer, cut to its size, with room to spare.
func TestEnvelopeSizedReceive(t *testing.T) {
	for _, size := range []int{0, eagerMax, 64 << 10} {
		for _, tc := range []struct {
			name string
			late bool
		}{{"posted first", false}, {"arrived first", true}} {
			want := mkdata(size, byte(size))
			world(t, 2, func(p *sim.Proc, r *Rank) {
				if r.ID() == 0 {
					if !tc.late {
						p.Wait(100 * sim.Microsecond) // the receive is posted first
					}
					r.Send(p, 1, 5, want)
					return
				}
				if tc.late {
					p.Wait(2 * sim.Millisecond) // the message is waiting
				}
				var calls int
				var buf []byte
				into := func(src, n int) []byte {
					calls++
					if src != 0 || n != size {
						t.Errorf("%d bytes, %s: into(%d, %d), want into(0, %d)", size, tc.name, src, n, size)
					}
					buf = make([]byte, n+8)
					return buf
				}
				st, data := r.irecv(p, 0, 5, nil, into).wait(p)
				if calls != 1 {
					t.Errorf("%d bytes, %s: into called %d times", size, tc.name, calls)
				}
				if st.Count != size || len(data) != size || !bytes.Equal(data, want) {
					t.Errorf("%d bytes, %s: status %+v, %d bytes, payload intact %v", size, tc.name, st, len(data), bytes.Equal(data, want))
				}
				if size > 0 && &data[0] != &buf[0] {
					t.Errorf("%d bytes, %s: payload not in into's buffer", size, tc.name)
				}
			})
		}
	}
}

// TestAlltoallvSkewedReadiness: send(dst) parks a different time for every
// dst on every rank, as an aggregator's reply waits on its own read. The
// posted exchange hands every payload over intact, in step order after all
// of its sends are produced, and ends no later than the stream on the same
// payloads and parks, since a late send delays only the sends after it.
func TestAlltoallvSkewedReadiness(t *testing.T) {
	const n = 4
	run := func(posted bool) sim.Time {
		var end sim.Time
		world(t, n, func(p *sim.Proc, r *Rank) {
			me := r.ID()
			exchange := (*Comm).AlltoallvStream
			if posted {
				exchange = (*Comm).Alltoallv
			}
			var order, want []int
			for k := 0; k < n; k++ {
				want = append(want, (me-k+n)%n)
			}
			sent := 0
			exchange(&r.Comm, p, func(dst int) []byte {
				p.Wait(sim.Time((me*7+dst*13)%11) * 40 * sim.Microsecond)
				sent++
				return streamPayload(me, dst, n)
			}, func(_, size int) []byte { return make([]byte, size) }, func(src int, data []byte) {
				if posted && sent != n {
					t.Errorf("rank %d: payload from %d handed over after %d of %d sends", me, src, sent, n)
				}
				order = append(order, src)
				if !bytes.Equal(data, streamPayload(src, me, n)) {
					t.Errorf("posted=%v rank %d: payload from %d differs", posted, me, src)
				}
			})
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Errorf("posted=%v rank %d: handed over %v, want %v", posted, me, order, want)
			}
			end = max(end, p.Now())
		})
		return end
	}
	stream, posted := run(false), run(true)
	t.Logf("stream ends at %v, posted at %v", stream, posted)
	if posted > stream {
		t.Errorf("the posted exchange ended at %v, after the stream's %v", posted, stream)
	}
}
