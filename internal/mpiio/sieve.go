package mpiio

import "dafsio/internal/sim"

// Data sieving (ROMIO's optimization for noncontiguous *independent*
// access): instead of one driver operation per hole-separated segment,
// access one large window covering many segments and scatter/gather in
// memory. One body, sieve, serves both directions: every window is read
// whole, a read scatters it and a write does read-modify-write on it. Reads
// over-fetch the holes; writes re-write them. The trade is extra bytes on
// the wire for far fewer operations.
//
// The read-modify-write is not locked against other writers of the same
// window, and that is a known defect, not a permitted race: MPI requires
// concurrent nonoverlapping writes to all land, but when ranks sieve
// interleaved blocks each one's window write-back restores the holes it
// read before a neighbour's write landed there, and that neighbour's data
// is lost. A byte-range lock held across sieve's window, from its read to
// its write-back, is the open fix (ROADMAP.md, "sieved writes stop losing
// data").

// window groups consecutive segments whose total span fits the sieve
// buffer; fn is invoked per window with the segment subrange and the
// corresponding base position in the user buffer.
func windows(segs []Segment, bufSize int, fn func(first, last int, start, end int64) error) error {
	i := 0
	for i < len(segs) {
		start := segs[i].Off
		j := i
		end := segs[i].Off + segs[i].Len
		for j+1 < len(segs) && segs[j+1].Off+segs[j+1].Len-start <= int64(bufSize) {
			j++
			end = segs[j].Off + segs[j].Len
		}
		if err := fn(i, j, start, end); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

// sieveWindow returns the call's sieve window of size bytes and its
// position table, bufPos[i] the start of segment i's bytes in the user
// buffer, both from the working set: a window reused across calls is one
// buffer, so at width 1 its registration hits the NIC's cache.
func (sc *scratch) sieveWindow(segs []Segment, size int) (window []byte, bufPos []int) {
	sc.sieve = grown(sc.sieve, size)
	sc.bufPos = grown(sc.bufPos, len(segs))
	pos := 0
	for i, s := range segs {
		sc.bufPos[i] = pos
		pos += int(s.Len)
	}
	return sc.sieve, sc.bufPos
}

// sieve moves segs, ascending and mapping to consecutive bytes of buf,
// one window at a time, in either direction. Each window is read whole; a
// read then scatters it into buf, and a write gathers buf into it and
// writes it back, so the holes between segments keep their contents. A
// segment larger than the window moves on its own. The count is the
// caller's bytes only: of each segment, what the window read (or, for a
// write, the write-back) covered.
func (f *File) sieve(p *sim.Proc, sc *scratch, segs []Segment, buf []byte, write bool) (int, error) {
	node := f.drv.Node()
	tmp, bufPos := sc.sieveWindow(segs, f.hints.SieveBufSize)
	total := 0
	err := windows(segs, f.hints.SieveBufSize, func(first, last int, start, end int64) error {
		if first == last && segs[first].Len > int64(f.hints.SieveBufSize) {
			s := segs[first]
			n, err := transfer(p, f.h, s.Off, buf[bufPos[first]:bufPos[first]+int(s.Len)], write)
			total += n
			return err
		}
		w := tmp[:end-start]
		clear(w) // a short read leaves zeros past EOF, which a write-back keeps
		n, err := transfer(p, f.h, start, w, false)
		if err != nil {
			return err
		}
		if write {
			for i := first; i <= last; i++ {
				s := segs[i]
				copy(w[s.Off-start:], buf[bufPos[i]:bufPos[i]+int(s.Len)])
				node.CopyMem(p, int(s.Len))
			}
			if n, err = transfer(p, f.h, start, w, true); err != nil {
				return err
			}
		}
		for i := first; i <= last; i++ {
			s := segs[i]
			got := min(s.Len, start+int64(n)-s.Off)
			if got <= 0 {
				continue
			}
			if !write {
				copy(buf[bufPos[i]:bufPos[i]+int(got)], w[s.Off-start:])
				node.CopyMem(p, int(got))
			}
			total += int(got)
		}
		return nil
	})
	return total, err
}
