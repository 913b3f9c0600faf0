// Package layout maps a logical byte stream onto stripe objects spread
// round-robin across N file servers — the placement policy that lets the
// storage path scale past a single server's NIC.
//
// The model is the classic parallel-file-system one (PVFS, ROMIO's file
// domains, DAOS dkeys): the logical file is cut into fixed-size stripes;
// stripe k lives on server k mod Width, appended to that server's stripe
// object. Each server therefore holds one dense object per file, and a
// contiguous logical extent maps to at most one fragment per stripe.
//
// Width == 1 is the identity mapping regardless of StripeSize: one
// fragment, same offsets — the unstriped single-server path.
package layout

import "fmt"

// Striping is a placement policy: fixed-size stripes dealt round-robin
// over Width servers.
type Striping struct {
	// StripeSize is the bytes per stripe. It must be > 0 when Width > 1;
	// it is ignored when Width == 1 (identity mapping).
	StripeSize int64
	// Width is the number of servers (>= 1).
	Width int
	// Replicas is how many copies of each stripe exist (0 and 1 both mean
	// unreplicated). Replica rank r of a stripe whose primary lives on
	// server s is placed on server (s+r) mod Width — rotation, so no two
	// replicas of one stripe ever share a server, which is why Validate
	// rejects Replicas > Width. The placement keeps every rank dense: the
	// rank-r object on server t is a byte-identical mirror of the primary
	// object of server (t-r+Width) mod Width, so fragment offsets need no
	// per-rank translation.
	Replicas int
}

// Validate reports whether the policy is usable.
func (s Striping) Validate() error {
	if s.Width < 1 {
		return fmt.Errorf("layout: width %d < 1", s.Width)
	}
	if s.Width > 1 && s.StripeSize <= 0 {
		return fmt.Errorf("layout: stripe size %d must be positive for width %d", s.StripeSize, s.Width)
	}
	if s.Replicas < 0 {
		return fmt.Errorf("layout: replicas %d < 0", s.Replicas)
	}
	if s.Replicas > s.Width {
		return fmt.Errorf("layout: replicas %d > width %d (replicas of one stripe must land on distinct servers)", s.Replicas, s.Width)
	}
	return nil
}

// R returns the effective replica count (at least 1).
func (s Striping) R() int {
	if s.Replicas < 1 {
		return 1
	}
	return s.Replicas
}

// ReplicaServer returns the server holding replica rank r of a stripe
// whose primary is on server primary.
func (s Striping) ReplicaServer(primary, r int) int {
	return (primary + r) % s.Width
}

// ReplicaName returns the stripe-object name for replica rank r of the
// named file. Rank 0 keeps the plain name so unreplicated layouts are
// wire- and store-compatible with pre-replication ones.
func ReplicaName(name string, r int) string {
	if r == 0 {
		return name
	}
	return fmt.Sprintf("%s#%d", name, r)
}

// Server returns the index of the server holding logical byte off.
func (s Striping) Server(off int64) int {
	if s.Width == 1 {
		return 0
	}
	return int(off / s.StripeSize % int64(s.Width))
}

// Fragment is one piece of a logical extent on one server.
type Fragment struct {
	// Server is the index of the server holding the bytes.
	Server int
	// Off is the offset within that server's stripe object.
	Off int64
	// Len is the fragment length in bytes.
	Len int64
	// BufOff is where the fragment's bytes sit in the request buffer
	// (fragments are returned in logical order, so BufOff is also the
	// fragment's offset from the start of the extent).
	BufOff int64
}

// Map splits the contiguous logical extent [off, off+n) into per-server
// fragments in logical order. Unaligned edges produce partial first/last
// fragments; an extent inside one stripe produces exactly one fragment.
func (s Striping) Map(off, n int64) []Fragment {
	var frags []Fragment
	if s.Width > 1 && n > 0 {
		frags = make([]Fragment, 0, n/s.StripeSize+2)
	}
	return s.AppendMap(frags, off, n)
}

// AppendMap is Map appending to frags, so a caller that keeps room for the
// fragments of a typical request maps it without allocating.
func (s Striping) AppendMap(frags []Fragment, off, n int64) []Fragment {
	if off < 0 || n < 0 {
		panic(fmt.Sprintf("layout: negative extent (%d, %d)", off, n))
	}
	if n == 0 {
		return frags
	}
	if s.Width == 1 {
		return append(frags, Fragment{Server: 0, Off: off, Len: n})
	}
	end := off + n
	var bufOff int64
	for off < end {
		k := off / s.StripeSize     // global stripe index
		intra := off % s.StripeSize // position within the stripe
		take := s.StripeSize - intra
		if rem := end - off; rem < take {
			take = rem
		}
		row := k / int64(s.Width) // stripe's row in its server object
		frags = append(frags, Fragment{
			Server: int(k % int64(s.Width)),
			Off:    row*s.StripeSize + intra,
			Len:    take,
			BufOff: bufOff,
		})
		off += take
		bufOff += take
	}
	return frags
}

// ObjectSizes returns the per-server stripe-object sizes of a dense
// logical file of n bytes — what each server stores after the file is
// written sequentially through this policy.
func (s Striping) ObjectSizes(n int64) []int64 {
	if n < 0 {
		panic(fmt.Sprintf("layout: negative size %d", n))
	}
	if s.Width == 1 {
		return []int64{n}
	}
	sizes := make([]int64, s.Width)
	full := n / s.StripeSize // complete stripes
	rem := n % s.StripeSize
	for i := range sizes {
		onI := full / int64(s.Width)
		if full%int64(s.Width) > int64(i) {
			onI++
		}
		sizes[i] = onI * s.StripeSize
	}
	if rem > 0 {
		i := full % int64(s.Width)
		sizes[i] = (full/int64(s.Width))*s.StripeSize + rem
	}
	return sizes
}

// LogicalSize inverts ObjectSizes: given the observed per-server object
// sizes, it returns the logical file size — the logical position one past
// the highest byte any server holds. It is the striped analogue of a
// Getattr size and satisfies LogicalSize(ObjectSizes(n)) == n for dense
// files.
func (s Striping) LogicalSize(objSizes []int64) int64 {
	if len(objSizes) != s.Width {
		panic(fmt.Sprintf("layout: %d object sizes for width %d", len(objSizes), s.Width))
	}
	if s.Width == 1 {
		return objSizes[0]
	}
	var size int64
	for i, z := range objSizes {
		if z <= 0 {
			continue
		}
		q := z - 1 // last object offset held by server i
		row := q / s.StripeSize
		intra := q % s.StripeSize
		k := row*int64(s.Width) + int64(i) // global stripe index
		if logical := k*s.StripeSize + intra + 1; logical > size {
			size = logical
		}
	}
	return size
}

// ContiguousCount folds per-fragment transfer counts into the extent's
// byte count under read semantics: the result is the length of the
// contiguous prefix delivered, so a short count on one fragment (EOF
// mid-stripe) stops the tally even when later fragments returned data.
// frags must be the logical-order output of Map and counts its per-fragment
// results.
func ContiguousCount(frags []Fragment, counts []int) int {
	if len(frags) != len(counts) {
		panic(fmt.Sprintf("layout: %d counts for %d fragments", len(counts), len(frags)))
	}
	total := 0
	for i, f := range frags {
		total += counts[i]
		if int64(counts[i]) < f.Len {
			break
		}
	}
	return total
}
