package dafs

import (
	"errors"
	"slices"
	"testing"

	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// forgeResponse sends a response with the given XID from the server end of
// the rig's first session, as a server answering a request twice would.
func forgeResponse(t *testing.T, p *sim.Proc, r *rig, xid uint32) {
	t.Helper()
	sess := r.srv.sessions[0]
	rs, _ := sess.respPool.Recv(p)
	encodeHeader(rs.bytes(), Header{Proc: ProcGetattr, XID: xid, Status: StatusOK})
	rs.desc = via.Descriptor{Op: via.OpSend, Region: rs.reg, Offset: rs.i * sess.slotSize, Len: HeaderLen, Ctx: rs}
	if err := sess.vi.PostSend(p, &rs.desc); err != nil {
		t.Fatalf("forged response: %v", err)
	}
}

// TestLateResponseSkipsNewerCall: a response whose call is no longer
// pending is dropped, even when the pending-table entry its XID picks now
// holds a newer call. The table is looked up by the whole XID; matching on
// the entry alone would complete the newer call with the stale response.
func TestLateResponseSkipsNewerCall(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		done := c.nextXID // the Create's XID, answered and collected
		for c.nextXID+1 != done+credits {
			io, err := c.StartGetattr(p, fh)
			if _, err := await(p, io, err); err != nil {
				t.Error(err)
				return
			}
		}
		r.srv.Crash() // the server hears the next request but never answers
		op, err := c.StartGetattr(p, fh)
		if err != nil {
			t.Error(err)
			return
		}
		newer := (*Call)(op)
		if e := c.pending[done%credits]; e != newer {
			t.Errorf("XID %d sits elsewhere in the table: want the entry of XID %d", newer.xid, done)
			return
		}
		forgeResponse(t, p, r, done)
		p.Wait(sim.Millisecond)
		if newer.fut.Done() || c.lookup(newer.xid) != newer {
			t.Errorf("the late response for XID %d completed XID %d", done, newer.xid)
		}
		c.fail(errors.New("injected transport failure"))
		if _, err := op.Wait(p); !errors.Is(err, ErrSession) {
			t.Errorf("the newer call: err=%v, want the session failure", err)
		}
	})
}

// TestFailCompletesInXIDOrder: when a session fails, its pending calls
// complete in XID order however they sit in the pending table. Eight calls
// issued after five others wrap the table (XIDs 6..13 at entries 6, 7, 0,
// ..., 5), and the waiters must wake in issue order.
func TestFailCompletesInXIDOrder(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, err := c.Create(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		for range 3 {
			io, err := c.StartGetattr(p, fh)
			if _, err := await(p, io, err); err != nil {
				t.Error(err)
				return
			}
		}
		r.srv.Crash()
		var issued, woke []uint32
		for range credits {
			r.k.Spawn("waiter", func(p *sim.Proc) {
				op, err := c.StartGetattr(p, fh)
				if err != nil {
					t.Error(err)
					return
				}
				xid := (*Call)(op).xid
				issued = append(issued, xid)
				if _, err := op.Wait(p); !errors.Is(err, ErrSession) {
					t.Errorf("XID %d: err=%v, want the session failure", xid, err)
				}
				woke = append(woke, xid)
			})
		}
		p.Wait(sim.Millisecond)
		var table []uint32
		for _, call := range c.pending {
			if call == nil {
				t.Errorf("pending table %v has a free entry: want %d calls", c.pending, credits)
				return
			}
			table = append(table, call.xid)
		}
		if slices.IsSorted(table) {
			t.Errorf("pending table holds XIDs %v in XID order: the test needs them out of it", table)
			return
		}
		c.fail(errors.New("injected transport failure"))
		p.Wait(sim.Millisecond)
		want := slices.Clone(issued)
		slices.Sort(want)
		if !slices.Equal(woke, want) {
			t.Errorf("waiters woke in order %v, want XID order %v (table order %v)", woke, want, table)
		}
	})
}
