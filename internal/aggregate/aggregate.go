// Package aggregate plans collective and batched transfers against a
// striped layout. It is the one place in the stack that reasons about a
// transfer *per destination server*: given a layout.Striping, a set of
// logical (offset, length) segments, and a world size, it produces a
// deterministic transfer plan in two parts —
//
//   - Domains: a file-domain partition for two-phase collective I/O.
//     When the layout is striped and the world is wide enough, domain
//     boundaries snap to the stripe so aggregator a owns exactly the
//     stripes that live on server a (cb_nodes = Width ≤ world) — the
//     classic ROMIO-on-PVFS alignment. Otherwise it falls back to the
//     equal split the collective layer always used.
//
//   - Gather: per-server gather plans for batched noncontiguous access.
//     For each destination server: a packed contiguous staging buffer
//     size, the batch segment list to issue against that server's stripe
//     object, and the scatter map relating user-buffer bytes to staging
//     bytes (used forward to pack writes, inverted to scatter read
//     completions).
//
// Both planners are pure functions of their inputs — no simulated time,
// no randomness — so plans are deterministic and replayable.
package aggregate

import (
	"slices"

	"dafsio/internal/layout"
)

// Segment is one contiguous byte range of the logical file. A plan input
// is a list of segments mapping to consecutive bytes of one user buffer
// (the same contract as mpiio.Handle's list operations).
type Segment struct {
	Off, Len int64
}

// Partition assigns every byte of the hull [gmin, gmax) to exactly one
// aggregator. It is either stripe-aligned (period StripeSize, aggregator
// a ↔ server a) or the legacy equal split.
type Partition struct {
	gmin, gmax int64
	nAgg       int
	stripe     int64 // > 0 when stripe-aligned
	width      int64
}

// Domains builds the file-domain partition for a collective over the hull
// [gmin, gmax) with `world` ranks. Alignment engages only when requested
// AND the layout actually stripes (Width > 1, StripeSize > 0) AND there
// are at least Width ranks to act as aggregators; in every other case the
// partition degrades to the equal split with world aggregators, byte-
// identical to the pre-aggregate behavior.
//
// Fallback matrix:
//
//	align=false               → equal split, nAgg = world
//	Width == 1 (unstriped)    → equal split, nAgg = world
//	world < Width             → equal split, nAgg = world
//	otherwise                 → aligned, nAgg = Width
func Domains(st layout.Striping, gmin, gmax int64, world int, align bool) Partition {
	if align && st.Width > 1 && st.StripeSize > 0 && world >= st.Width {
		return Partition{gmin: gmin, gmax: gmax, nAgg: st.Width, stripe: st.StripeSize, width: int64(st.Width)}
	}
	return Partition{gmin: gmin, gmax: gmax, nAgg: world}
}

// NAgg returns the number of aggregators (ranks ≥ NAgg own no domain).
func (pt Partition) NAgg() int { return pt.nAgg }

// Aligned reports whether domain boundaries snap to the stripe.
func (pt Partition) Aligned() bool { return pt.stripe > 0 }

// Owner returns the aggregator owning byte off and the end (exclusive) of
// the maximal contiguous run starting at off that the same aggregator
// owns, clamped to the hull. Callers walk an extent by repeatedly jumping
// to hi.
//
// Aligned partitions use the *absolute* stripe index (off / StripeSize)
// mod Width — not the hull-relative one — which is what guarantees that
// aggregator a's domain maps entirely onto server a regardless of where
// the hull starts.
func (pt Partition) Owner(off int64) (int, int64) {
	if pt.stripe > 0 {
		k := off / pt.stripe
		hi := (k + 1) * pt.stripe
		if hi > pt.gmax {
			hi = pt.gmax
		}
		return int(k % pt.width), hi
	}
	a := EqualOwner(pt.gmin, pt.gmax, pt.nAgg, off)
	_, hi := EqualBounds(pt.gmin, pt.gmax, pt.nAgg, a)
	return a, hi
}

// EqualBounds returns aggregator a's file domain [lo, hi) under the
// legacy equal split of [gmin, gmax) into nAgg chunks.
func EqualBounds(gmin, gmax int64, nAgg, a int) (int64, int64) {
	span := gmax - gmin
	chunk := (span + int64(nAgg) - 1) / int64(nAgg)
	if chunk == 0 {
		chunk = 1
	}
	lo := min(gmin+int64(a)*chunk, gmax)
	hi := min(lo+chunk, gmax)
	return lo, hi
}

// EqualOwner returns the aggregator owning byte off under the equal split.
func EqualOwner(gmin, gmax int64, nAgg int, off int64) int {
	span := gmax - gmin
	chunk := (span + int64(nAgg) - 1) / int64(nAgg)
	if chunk == 0 {
		return 0
	}
	a := int((off - gmin) / chunk)
	if a >= nAgg {
		a = nAgg - 1
	}
	if a < 0 {
		a = 0
	}
	return a
}

// Seg is one entry of a batch segment list: a contiguous range of one
// server's stripe object.
type Seg struct {
	Off, Len int64
}

// joins reports whether object offset off continues s.
func (s Seg) joins(off int64) bool { return s.Off+s.Len == off }

// Copy relates user-buffer bytes to staging-buffer bytes:
// stage[StageOff:StageOff+Len] ↔ buf[BufOff:BufOff+Len]. Applied forward
// it packs a write's gather buffer; applied backward it scatters a read's
// completion.
type Copy struct {
	BufOff, StageOff, Len int64
}

// joins reports whether the bytes at user-buffer offset b and staging
// offset stageOff continue c on both sides.
func (c Copy) joins(b, stageOff int64) bool {
	return c.BufOff+c.Len == b && c.StageOff+c.Len == stageOff
}

// ServerPlan is the complete transfer plan for one destination server: a
// staging buffer of Total bytes whose consecutive bytes correspond to the
// Segs entries in order, plus the Copies mapping staging bytes to user-
// buffer bytes. Replication is deliberately absent: Server is the primary
// placement, and the driver fans the same plan out to replica objects via
// layout.ReplicaServer.
type ServerPlan struct {
	Server int
	Total  int64
	Segs   []Seg
	Copies []Copy
}

// Gather maps logical segments (consecutive bytes of one user buffer, in
// caller order) onto per-server plans. Every user-buffer byte lands in
// exactly one (server, object-offset) slot; adjacent fragments coalesce
// both in the segment list (when object-contiguous) and in the copy map
// (when contiguous on both sides), so a stripe-aligned extent collapses
// to one Seg per server. Plans come back in server order; servers with no
// bytes are omitted.
func Gather(st layout.Striping, segs []Segment) []ServerPlan {
	return AppendGather(nil, st, segs)
}

// AppendGather is Gather appending to plans. A plan it appends into spare
// capacity that held a plan before reuses that plan's two lists when they
// have room, so a caller that passes its last result back as plans[:0]
// plans a request of the same shape without allocating.
//
// Each segment is mapped into one fragment scratch the call reuses, and a
// counting pass sizes every plan's two lists before a second pass fills
// them, so the lists that lack room are cut from one allocation whatever
// the segment count or the width.
func AppendGather(plans []ServerPlan, st layout.Striping, segs []Segment) []ServerPlan {
	base := len(plans)
	plans = slices.Grow(plans, st.Width)[:base+st.Width]
	all := plans[base:]
	var fragBuf [4]layout.Fragment
	frags := fragBuf[:0]

	// Counting pass: coalescing looks only at a list's last entry, so
	// tracking that entry per server counts each list exactly.
	type tail struct {
		seg            Seg
		cp             Copy
		nSegs, nCopies int
		total          int64
	}
	var tailBuf [16]tail
	tails := tailBuf[:]
	if st.Width > len(tailBuf) {
		tails = make([]tail, st.Width)
	}
	tails = tails[:st.Width]
	var bufOff int64
	for _, s := range segs {
		frags = st.AppendMap(frags[:0], s.Off, s.Len)
		for _, fr := range frags {
			t, b := &tails[fr.Server], bufOff+fr.BufOff
			if t.nSegs == 0 || !t.seg.joins(fr.Off) {
				t.seg = Seg{Off: fr.Off}
				t.nSegs++
			}
			if t.nCopies == 0 || !t.cp.joins(b, t.total) {
				t.cp = Copy{BufOff: b, StageOff: t.total}
				t.nCopies++
			}
			t.seg.Len += fr.Len
			t.cp.Len += fr.Len
			t.total += fr.Len
		}
		bufOff += s.Len
	}
	nSegs, nCopies := 0, 0 // what the reused lists have no room for
	for i, t := range tails {
		if cap(all[i].Segs) < t.nSegs {
			nSegs += t.nSegs
		}
		if cap(all[i].Copies) < t.nCopies {
			nCopies += t.nCopies
		}
	}
	newSegs, newCopies := make([]Seg, nSegs), make([]Copy, nCopies)
	for i, t := range tails {
		pl := &all[i]
		if cap(pl.Segs) < t.nSegs {
			pl.Segs, newSegs = newSegs[:0:t.nSegs], newSegs[t.nSegs:]
		}
		if cap(pl.Copies) < t.nCopies {
			pl.Copies, newCopies = newCopies[:0:t.nCopies], newCopies[t.nCopies:]
		}
		pl.Server, pl.Total, pl.Segs, pl.Copies = i, 0, pl.Segs[:0], pl.Copies[:0]
	}

	// Filling pass: the same walk, appending within those capacities.
	bufOff = 0
	for _, s := range segs {
		frags = st.AppendMap(frags[:0], s.Off, s.Len)
		for _, fr := range frags {
			pl, b := &all[fr.Server], bufOff+fr.BufOff
			if n := len(pl.Segs); n > 0 && pl.Segs[n-1].joins(fr.Off) {
				pl.Segs[n-1].Len += fr.Len
			} else {
				pl.Segs = append(pl.Segs, Seg{Off: fr.Off, Len: fr.Len})
			}
			if n := len(pl.Copies); n > 0 && pl.Copies[n-1].joins(b, pl.Total) {
				pl.Copies[n-1].Len += fr.Len
			} else {
				pl.Copies = append(pl.Copies, Copy{BufOff: b, StageOff: pl.Total, Len: fr.Len})
			}
			pl.Total += fr.Len
		}
		bufOff += s.Len
	}

	// Drop the servers with no bytes. Swapping, not copying, keeps every
	// list referenced by one slot, so the next reuse cannot alias two.
	n := 0
	for i := range all {
		if all[i].Total > 0 {
			all[n], all[i] = all[i], all[n]
			n++
		}
	}
	return plans[:base+n]
}
