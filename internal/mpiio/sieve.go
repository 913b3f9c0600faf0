package mpiio

import "dafsio/internal/sim"

// Data sieving (ROMIO's optimization for noncontiguous *independent*
// access): instead of one driver operation per hole-separated segment,
// access one large window covering many segments and scatter/gather in
// memory. Reads over-fetch the holes; writes do read-modify-write on the
// window. The trade is extra bytes on the wire for far fewer operations.
//
// The read-modify-write is not locked against other writers of the same
// window, and that is a known defect, not a permitted race: MPI requires
// concurrent nonoverlapping writes to all land, but when ranks sieve
// interleaved blocks each one's window write-back restores the holes it
// read before a neighbour's write landed there, and that neighbour's data
// is lost. A byte-range lock held across the window is the open fix
// (ROADMAP.md, "sieved writes stop losing data").

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

// sieveRead reads windows and scatters them into buf. segs are ascending,
// mapping to consecutive bytes of buf.
func (f *File) sieveRead(p *sim.Proc, sc *scratch, segs []Segment, buf []byte) (int, error) {
	node := f.drv.Node()
	tmp, bufPos := sc.sieveWindow(segs, f.hints.SieveBufSize)
	total := 0
	err := windows(segs, f.hints.SieveBufSize, func(first, last int, start, end int64) error {
		if first == last && segs[first].Len > int64(f.hints.SieveBufSize) {
			// Oversized single segment: read it directly.
			s := segs[first]
			n, err := transfer(p, f.h, s.Off, buf[bufPos[first]:bufPos[first]+int(s.Len)], false)
			total += n
			return err
		}
		n, err := transfer(p, f.h, start, tmp[:end-start], false)
		if err != nil {
			return err
		}
		for i := first; i <= last; i++ {
			s := segs[i]
			rel := s.Off - start
			avail := min(int64(n)-rel, s.Len)
			if avail <= 0 {
				continue
			}
			copy(buf[bufPos[i]:bufPos[i]+int(avail)], tmp[rel:rel+avail])
			node.CopyMem(p, int(avail))
			total += int(avail)
		}
		return nil
	})
	return total, err
}

// sieveWrite performs read-modify-write per window so the holes between
// segments keep their previous contents.
func (f *File) sieveWrite(p *sim.Proc, sc *scratch, segs []Segment, buf []byte) (int, error) {
	node := f.drv.Node()
	tmp, bufPos := sc.sieveWindow(segs, f.hints.SieveBufSize)
	total := 0
	err := windows(segs, f.hints.SieveBufSize, func(first, last int, start, end int64) error {
		if first == last && segs[first].Len > int64(f.hints.SieveBufSize) {
			s := segs[first]
			n, err := transfer(p, f.h, s.Off, buf[bufPos[first]:bufPos[first]+int(s.Len)], true)
			total += n
			return err
		}
		w := tmp[:end-start]
		clear(w)
		if _, err := transfer(p, f.h, start, w, false); err != nil {
			return err
		}
		for i := first; i <= last; i++ {
			s := segs[i]
			rel := s.Off - start
			copy(w[rel:rel+s.Len], buf[bufPos[i]:bufPos[i]+int(s.Len)])
			node.CopyMem(p, int(s.Len))
		}
		n, err := transfer(p, f.h, start, w, true)
		if err != nil {
			return err
		}
		// Count only the caller's bytes, not the re-written holes.
		written := int64(0)
		for i := first; i <= last; i++ {
			s := segs[i]
			if s.Off+s.Len <= start+int64(n) {
				written += s.Len
			} else if s.Off < start+int64(n) {
				written += start + int64(n) - s.Off
			}
		}
		total += int(written)
		return nil
	})
	return total, err
}
