package dafs

import (
	"bytes"
	"errors"
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
		io, err := c.StartWriteBatch(p, fh, segs, reg, 0)
		n, err := await(p, io, err)
		if err != nil || n != 350 {
			t.Errorf("write batch: n=%d err=%v", n, err)
		}
		f, _ := r.store.Lookup("b")
		if !bytes.Equal(stored(f, 1000, 100), pattern(100, 1)) {
			t.Error("segment 1 misplaced")
		}
		if !bytes.Equal(stored(f, 5000, 200), pattern(200, 2)) {
			t.Error("segment 2 misplaced")
		}
		if !bytes.Equal(stored(f, 0, 50), pattern(50, 3)) {
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
		mem := make([]byte, 300)
		reg := c.NIC().Register(p, mem)
		segs := []SegSpec{{Off: 100, Len: 100}, {Off: 4000, Len: 200}}
		io, err := c.StartReadBatch(p, fh, segs, reg, 0)
		n, err := await(p, io, err)
		if err != nil || n != 300 {
			t.Errorf("read batch: n=%d err=%v", n, err)
		}
		want := pattern(8000, 7)
		if !bytes.Equal(mem[:100], want[100:200]) {
			t.Error("slot 1 mismatch")
		}
		if !bytes.Equal(mem[100:300], want[4000:4200]) {
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
		io, err := c.StartWriteBatch(p, other, []SegSpec{{Off: 0, Len: 300}}, stain, 0)
		if _, err := await(p, io, err); err != nil {
			t.Error(err)
		}
		fh, _, _ := c.Create(p, "b")
		c.Write(p, fh, 0, pattern(150, 1))
		mem := bytes.Repeat([]byte{0xEE}, 300)
		reg := c.NIC().Register(p, mem)
		segs := []SegSpec{
			{Off: 100, Len: 100}, // 50 available
			{Off: 500, Len: 200}, // fully beyond EOF
		}
		io, err = c.StartReadBatch(p, fh, segs, reg, 0)
		n, err := await(p, io, err)
		if err != nil || n != 50 {
			t.Errorf("short batch: n=%d err=%v", n, err)
		}
		if !bytes.Equal(mem[:50], pattern(150, 1)[100:]) {
			t.Error("available bytes mismatch")
		}
		if !bytes.Equal(mem[50:], make([]byte, 250)) {
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
		if _, err := c.StartWriteBatch(p, fh, nil, reg, 0); err != ErrInval {
			t.Errorf("empty list: %v", err)
		}
		// Buffer too small for the segments.
		segs := []SegSpec{{Off: 0, Len: 200}}
		if _, err := c.StartWriteBatch(p, fh, segs, reg, 0); err != ErrInval {
			t.Errorf("overflow: %v", err)
		}
		// Negative offset.
		if _, err := c.StartWriteBatch(p, fh, []SegSpec{{Off: -1, Len: 10}}, reg, 0); err != ErrInval {
			t.Errorf("negative: %v", err)
		}
		// Too many segments.
		many := make([]SegSpec, MaxBatchSegs+1)
		if _, err := c.StartWriteBatch(p, fh, many, reg, 0); err != ErrInval {
			t.Errorf("too many: %v", err)
		}
	})
}

func TestBatchStaleHandle(t *testing.T) {
	r := newRig(1)
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		io, err := c.StartRemove(p, "b")
		await(p, io, err)
		reg := c.NIC().Register(p, make([]byte, 10))
		io, err = c.StartReadBatch(p, fh, []SegSpec{{Off: 0, Len: 10}}, reg, 0)
		if _, err := await(p, io, err); err != ErrStale {
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
		io, err := c.StartWriteBatch(p, fh, segs, reg, 0)
		if _, err := await(p, io, err); err != nil {
			t.Error(err)
		}
		if got := c.Stats().Ops - before; got != 1 {
			t.Errorf("batch used %d requests", got)
		}
	})
}

// TestTransferBoundRefusedBeforeStaging: a direct or batch request that
// would move more than MaxTransfer gets StatusInval, and the server stages
// nothing for it. The largest is a READ_BATCH of 512 segments of 4 GiB − 1
// bytes, 2 TiB in all; the client's own checks would refuse each request
// first, so the test encodes them itself.
func TestTransferBoundRefusedBeforeStaging(t *testing.T) {
	r := newRig(1)
	staged := func() (n int) {
		for _, b := range r.srv.staging {
			n += cap(b)
		}
		return n
	}
	r.run(t, func(p *sim.Proc, c *Client) {
		fh, _, _ := c.Create(p, "b")
		reg := c.NIC().Register(p, make([]byte, 4096))
		if _, err := c.WriteDirect(p, fh, 0, reg, 0, 4096); err != nil {
			t.Errorf("write direct: %v", err)
			return
		}
		before := staged()
		huge := make([]SegSpec, MaxBatchSegs)
		for i := range huge {
			huge[i] = SegSpec{Off: int64(i) << 32, Len: 1<<32 - 1}
		}
		direct := func(n int) func(w *wr) {
			return func(w *wr) {
				w.U64(uint64(fh))
				w.U64(0)
				w.U32(uint32(n))
				w.U32(uint32(reg.Handle))
				w.U32(0)
			}
		}
		for _, tc := range []struct {
			proc Proc
			enc  func(w *wr)
		}{
			{ProcReadBatch, func(w *wr) { encodeBatch(w, fh, huge, reg, 0) }},
			{ProcWriteBatch, func(w *wr) { encodeBatch(w, fh, huge, reg, 0) }},
			{ProcReadBatch, func(w *wr) { encodeBatch(w, fh, []SegSpec{{Len: MaxTransfer / 2}, {Len: MaxTransfer/2 + 1}}, reg, 0) }},
			{ProcReadDirect, direct(MaxTransfer + 1)},
			{ProcWriteDirect, direct(MaxTransfer + 1)},
		} {
			call, err := c.start(p, tc.proc, nil, tc.enc)
			if err == nil {
				err = call.wait(p, nil)
			}
			if !errors.Is(err, ErrInval) {
				t.Errorf("%v over MaxTransfer: %v, want ErrInval", tc.proc, err)
			}
			if got := staged(); got != before {
				t.Errorf("%v over MaxTransfer: staging pool holds %d B, had %d", tc.proc, got, before)
			}
		}
	})
}
