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

import "dafsio/internal/layout"

// Segment is one contiguous byte range of the logical file. A plan input
// is a list of segments mapping to consecutive bytes of one user buffer
// (the same contract as mpiio.ListHandle).
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

// Copy relates user-buffer bytes to staging-buffer bytes:
// stage[StageOff:StageOff+Len] ↔ buf[BufOff:BufOff+Len]. Applied forward
// it packs a write's gather buffer; applied backward it scatters a read's
// completion.
type Copy struct {
	BufOff, StageOff, Len int64
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
//
// Each segment is mapped into one fragment scratch the call reuses, so the
// call allocates per destination server (its plan's two lists as they
// grow), never per segment.
func Gather(st layout.Striping, segs []Segment) []ServerPlan {
	plans := make([]ServerPlan, st.Width)
	var frags []layout.Fragment
	var bufOff int64
	for _, s := range segs {
		frags = st.AppendMap(frags[:0], s.Off, s.Len)
		for _, fr := range frags {
			pl := &plans[fr.Server]
			stageOff := pl.Total
			if n := len(pl.Segs); n > 0 && pl.Segs[n-1].Off+pl.Segs[n-1].Len == fr.Off {
				pl.Segs[n-1].Len += fr.Len
			} else {
				pl.Segs = append(pl.Segs, Seg{Off: fr.Off, Len: fr.Len})
			}
			b := bufOff + fr.BufOff
			if n := len(pl.Copies); n > 0 &&
				pl.Copies[n-1].BufOff+pl.Copies[n-1].Len == b &&
				pl.Copies[n-1].StageOff+pl.Copies[n-1].Len == stageOff {
				pl.Copies[n-1].Len += fr.Len
			} else {
				pl.Copies = append(pl.Copies, Copy{BufOff: b, StageOff: stageOff, Len: fr.Len})
			}
			pl.Total += fr.Len
		}
		bufOff += s.Len
	}
	out := plans[:0]
	for i, pl := range plans {
		if pl.Total > 0 {
			pl.Server = i
			out = append(out, pl)
		}
	}
	return out
}
