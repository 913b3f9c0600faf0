package dafs

import (
	"bytes"
	"testing"

	"dafsio/internal/sim"
)

func TestWriteBatchGathersSegments(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		// Packed data: three segments landing at scattered offsets.
		data := append(append(pattern(100, 1), pattern(200, 2)...), pattern(50, 3)...)
		reg := c.NIC().Register(p, data)
		segs := []SegSpec{{Off: 1000, Len: 100}, {Off: 5000, Len: 200}, {Off: 0, Len: 50}}
		n, err := c.WriteBatch(p, fh, segs, reg, 0)
		if err != nil || n != 350 {
			t.Errorf("write batch: n=%d err=%v", n, err)
		}
		f, _ := r.store.Lookup("b")
		if !bytes.Equal(f.Slice(1000, 100), pattern(100, 1)) {
			t.Error("segment 1 misplaced")
		}
		if !bytes.Equal(f.Slice(5000, 200), pattern(200, 2)) {
			t.Error("segment 2 misplaced")
		}
		if !bytes.Equal(f.Slice(0, 50), pattern(50, 3)) {
			t.Error("segment 3 misplaced")
		}
		if f.Size() != 5200 {
			t.Errorf("size %d", f.Size())
		}
	})
}

func TestReadBatchScattersIntoSlots(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		c.Write(p, fh, 0, pattern(8000, 7))
		reg := c.NIC().Register(p, make([]byte, 300))
		segs := []SegSpec{{Off: 100, Len: 100}, {Off: 4000, Len: 200}}
		n, err := c.ReadBatch(p, fh, segs, reg, 0)
		if err != nil || n != 300 {
			t.Errorf("read batch: n=%d err=%v", n, err)
		}
		want := pattern(8000, 7)
		if !bytes.Equal(reg.Bytes()[:100], want[100:200]) {
			t.Error("slot 1 mismatch")
		}
		if !bytes.Equal(reg.Bytes()[100:300], want[4000:4200]) {
			t.Error("slot 2 mismatch")
		}
	})
}

func TestReadBatchShortAndBeyondEOF(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		// A batch write first: the server recycles staging pages, and what
		// this request leaves in them must not reach the short read below.
		stain := c.NIC().Register(p, bytes.Repeat([]byte{0xEE}, 300))
		other, _, _ := c.Create(p, "stain")
		if _, err := c.WriteBatch(p, other, []SegSpec{{Off: 0, Len: 300}}, stain, 0); err != nil {
			t.Error(err)
		}
		fh, _, _ := c.Create(p, "b")
		c.Write(p, fh, 0, pattern(150, 1))
		reg := c.NIC().Register(p, bytes.Repeat([]byte{0xEE}, 300))
		segs := []SegSpec{
			{Off: 100, Len: 100}, // 50 available
			{Off: 500, Len: 200}, // fully beyond EOF
		}
		n, err := c.ReadBatch(p, fh, segs, reg, 0)
		if err != nil || n != 50 {
			t.Errorf("short batch: n=%d err=%v", n, err)
		}
		if !bytes.Equal(reg.Bytes()[:50], pattern(150, 1)[100:]) {
			t.Error("available bytes mismatch")
		}
		if !bytes.Equal(reg.Bytes()[50:], make([]byte, 250)) {
			t.Error("slots past EOF are not zero-filled")
		}
	})
}

func TestBatchValidation(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		reg := c.NIC().Register(p, make([]byte, 100))
		// Empty list.
		if _, err := c.WriteBatch(p, fh, nil, reg, 0); err != ErrInval {
			t.Errorf("empty list: %v", err)
		}
		// Buffer too small for the segments.
		segs := []SegSpec{{Off: 0, Len: 200}}
		if _, err := c.WriteBatch(p, fh, segs, reg, 0); err != ErrInval {
			t.Errorf("overflow: %v", err)
		}
		// Negative offset.
		if _, err := c.WriteBatch(p, fh, []SegSpec{{Off: -1, Len: 10}}, reg, 0); err != ErrInval {
			t.Errorf("negative: %v", err)
		}
		// Too many segments.
		many := make([]SegSpec, MaxBatchSegs+1)
		if _, err := c.WriteBatch(p, fh, many, reg, 0); err != ErrInval {
			t.Errorf("too many: %v", err)
		}
	})
}

func TestBatchStaleHandle(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		c.Remove(p, "b")
		reg := c.NIC().Register(p, make([]byte, 10))
		if _, err := c.ReadBatch(p, fh, []SegSpec{{Off: 0, Len: 10}}, reg, 0); err != ErrStale {
			t.Errorf("stale batch: %v", err)
		}
	})
}

func TestBatchMaxBatchAccessor(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		if mb := c.MaxBatch(); mb <= 0 || mb > MaxBatchSegs {
			t.Errorf("MaxBatch = %d", mb)
		}
	})
}

func TestBatchFewerRequestsThanPerOp(t *testing.T) {
	// 64 segments in one batch: 1 request vs 64.
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		const nseg = 64
		reg := c.NIC().Register(p, make([]byte, nseg*100))
		segs := make([]SegSpec, nseg)
		for i := range segs {
			segs[i] = SegSpec{Off: int64(i * 1000), Len: 100}
		}
		before := c.Stats().Ops
		if _, err := c.WriteBatch(p, fh, segs, reg, 0); err != nil {
			t.Error(err)
		}
		if got := c.Stats().Ops - before; got != 1 {
			t.Errorf("batch used %d requests", got)
		}
	})
}
