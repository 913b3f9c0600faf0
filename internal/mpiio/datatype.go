// Package mpiio implements the MPI-2 I/O interface ("MPI/IO") — the
// paper's primary contribution — layered over interchangeable file-access
// drivers in the style of ROMIO's ADIO: a DAFS driver that switches between
// inline and direct (RDMA) transfers, an NFS driver over the kernel stack,
// and a local in-memory driver.
//
// The package provides file views built from derived datatypes,
// independent and nonblocking reads/writes, data sieving for noncontiguous
// independent access, and two-phase collective I/O (MPI_File_*_all) with
// file-domain partitioning and inter-rank data exchange over MPI.
package mpiio

import (
	"fmt"
	"sort"

	"dafsio/internal/aggregate"
)

// Segment is one contiguous byte range: of a type map, relative to the
// datatype's origin, or of the file. It is the gather planner's segment,
// so a list transfer hands its segments to the planner as they are.
type Segment = aggregate.Segment

// Datatype is a derived datatype over bytes (the base type is MPI_BYTE): a
// normalized type map (sorted, non-overlapping, coalesced segments) plus an
// extent. The extent is the stride at which consecutive instances of the
// type tile the file.
type Datatype struct {
	segs   []Segment
	extent int64
	size   int64
}

// Contiguous returns a datatype of n contiguous bytes.
func Contiguous(n int64) *Datatype {
	if n < 0 {
		panic("mpiio: negative datatype length")
	}
	if n == 0 {
		return &Datatype{}
	}
	return &Datatype{segs: []Segment{{Off: 0, Len: n}}, extent: n, size: n}
}

// Vector returns count blocks of blocklen bytes, the start of each block
// separated by stride bytes (stride >= blocklen). This is the classic
// interleaved-access type (MPI_Type_vector over bytes).
func Vector(count, blocklen, stride int64) *Datatype {
	if count < 0 || blocklen < 0 || stride < blocklen {
		panic("mpiio: invalid vector datatype")
	}
	segs := make([]Segment, 0, count)
	for i := int64(0); i < count; i++ {
		segs = append(segs, Segment{Off: i * stride, Len: blocklen})
	}
	return Indexed(segs)
}

// Indexed builds a datatype from explicit (offset, length) blocks. Blocks
// may be given in any order but must not overlap. The extent spans from 0
// to the end of the last block.
func Indexed(blocks []Segment) *Datatype {
	segs := make([]Segment, 0, len(blocks))
	for _, b := range blocks {
		if b.Off < 0 || b.Len < 0 {
			panic("mpiio: negative block in indexed datatype")
		}
		if b.Len > 0 {
			segs = append(segs, b)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Off < segs[j].Off })
	// Coalesce adjacent, reject overlap.
	out := segs[:0]
	for _, s := range segs {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if s.Off < prev.Off+prev.Len {
				panic("mpiio: overlapping blocks in indexed datatype")
			}
			if s.Off == prev.Off+prev.Len {
				prev.Len += s.Len
				continue
			}
		}
		out = append(out, s)
	}
	d := &Datatype{segs: out}
	for _, s := range out {
		d.size += s.Len
	}
	if len(out) > 0 {
		d.extent = out[len(out)-1].Off + out[len(out)-1].Len
	}
	return d
}

// Subarray2D describes a (subRows x subCols) tile starting at (startRow,
// startCol) inside a (rows x cols) row-major array of elemSize-byte
// elements — the standard datatype for block-decomposed matrices
// (MPI_Type_create_subarray).
func Subarray2D(rows, cols, startRow, startCol, subRows, subCols, elemSize int64) *Datatype {
	if startRow < 0 || startCol < 0 || subRows < 0 || subCols < 0 ||
		startRow+subRows > rows || startCol+subCols > cols || elemSize <= 0 {
		panic("mpiio: invalid subarray bounds")
	}
	blocks := make([]Segment, 0, subRows)
	for r := int64(0); r < subRows; r++ {
		blocks = append(blocks, Segment{
			Off: ((startRow+r)*cols + startCol) * elemSize,
			Len: subCols * elemSize,
		})
	}
	d := Indexed(blocks)
	d.extent = rows * cols * elemSize // full array extent so tiles don't interleave
	return d
}

// Resized returns a copy of d with a new extent (MPI_Type_create_resized).
// The extent must cover the type map.
func (d *Datatype) Resized(extent int64) *Datatype {
	if extent < d.extent {
		panic("mpiio: extent smaller than type map")
	}
	nd := *d
	nd.extent = extent
	return &nd
}

// Size returns the number of data bytes in one instance of the type.
func (d *Datatype) Size() int64 { return d.size }

// Extent returns the tiling stride.
func (d *Datatype) Extent() int64 { return d.extent }

// Segments returns the normalized type map.
func (d *Datatype) Segments() []Segment { return d.segs }

// Contig reports whether the type is a single dense block with no holes.
func (d *Datatype) Contig() bool {
	return len(d.segs) == 0 || (len(d.segs) == 1 && d.segs[0].Off == 0 && d.segs[0].Len == d.extent)
}

// String summarizes the datatype.
func (d *Datatype) String() string {
	return fmt.Sprintf("datatype(size=%d extent=%d blocks=%d)", d.size, d.extent, len(d.segs))
}

// mapRange translates a range of the type's *data space* (the dense
// sequence of payload bytes, tiling instance after instance) into physical
// byte segments relative to the first instance's origin. dataOff is the
// starting payload byte; length is the payload byte count. Results are
// appended to out and returned.
//
// This is the core of file-view address translation: a file view is a
// datatype tiled from a displacement, and an MPI file offset indexes the
// view's data space.
func (d *Datatype) mapRange(dataOff, length int64, out []Segment) []Segment {
	if length <= 0 {
		return out
	}
	if d.size == 0 {
		panic("mpiio: I/O through a zero-size view datatype")
	}
	tile := dataOff / d.size
	within := dataOff % d.size
	base := tile * d.extent
	for length > 0 {
		for _, s := range d.segs {
			if within >= s.Len {
				within -= s.Len
				continue
			}
			n := min(s.Len-within, length)
			out = appendSeg(out, Segment{Off: base + s.Off + within, Len: n})
			length -= n
			within += n
			if length == 0 {
				return out
			}
			within = 0 // continue at next segment
			continue
		}
		// Next tile.
		base += d.extent
		within = 0
	}
	return out
}

// segBound bounds the number of segments mapRange(dataOff, length) yields,
// so a caller can size the list once: at most one per block of every tile
// the range touches — one fewer per tile boundary when a tile's last block
// runs into the next tile's first — and never more than the bytes.
func (d *Datatype) segBound(dataOff, length int64) int {
	if length <= 0 || d.size == 0 {
		return 0
	}
	tiles := (dataOff%d.size + length + d.size - 1) / d.size
	bound := tiles * int64(len(d.segs))
	if first, last := d.segs[0], d.segs[len(d.segs)-1]; first.Off == 0 && last.Off+last.Len == d.extent {
		bound -= tiles - 1
	}
	return int(min(bound, length))
}

// appendSeg appends s, merging with the previous segment when adjacent.
func appendSeg(out []Segment, s Segment) []Segment {
	if n := len(out); n > 0 && out[n-1].Off+out[n-1].Len == s.Off {
		out[n-1].Len += s.Len
		return out
	}
	return append(out, s)
}
