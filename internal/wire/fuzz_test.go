package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The fields a fuzz script names, one per script byte (mod fieldKinds).
const (
	fieldU8 = iota
	fieldU16
	fieldU32
	fieldU64
	fieldStr
	fieldStrBytes
	fieldBlob
	fieldKinds
)

// field is one value of a scripted message: an integer or a string or blob.
type field struct {
	kind int
	n    uint64
	b    []byte
}

// script turns the script bytes into the fields of a message, drawing the
// values from src (cycled; zeros when it is empty). A string or blob takes
// its length from the next value byte, its contents from the ones after.
func script(ops, src []byte) []field {
	i := 0
	next := func() byte {
		if len(src) == 0 {
			return 0
		}
		b := src[i%len(src)]
		i++
		return b
	}
	fields := make([]field, len(ops))
	for j, op := range ops {
		f := &fields[j]
		f.kind = int(op) % fieldKinds
		switch f.kind {
		case fieldStr, fieldStrBytes, fieldBlob:
			f.b = make([]byte, next())
			for k := range f.b {
				f.b[k] = next()
			}
		default:
			for range 8 {
				f.n = f.n<<8 | uint64(next())
			}
		}
	}
	return fields
}

// put writes f, its integer truncated to the field's width.
func (f *field) put(w *Writer) {
	switch f.kind {
	case fieldU8:
		w.U8(uint8(f.n))
	case fieldU16:
		w.U16(uint16(f.n))
	case fieldU32:
		w.U32(uint32(f.n))
	case fieldU64:
		w.U64(f.n)
	case fieldStr, fieldStrBytes:
		w.Str(string(f.b))
	case fieldBlob:
		w.Blob(f.b)
	}
}

// get reads a field of f's kind back.
func (f *field) get(r *Reader) field {
	got := field{kind: f.kind}
	switch f.kind {
	case fieldU8:
		got.n = uint64(r.U8())
	case fieldU16:
		got.n = uint64(r.U16())
	case fieldU32:
		got.n = uint64(r.U32())
	case fieldU64:
		got.n = r.U64()
	case fieldStr:
		got.b = []byte(r.Str())
	case fieldStrBytes:
		got.b = r.StrBytes()
	case fieldBlob:
		got.b = r.Blob()
	}
	return got
}

// width is the mask of the bits a field of this kind carries.
func width(kind int) uint64 {
	switch kind {
	case fieldU8:
		return 1<<8 - 1
	case fieldU16:
		return 1<<16 - 1
	case fieldU32:
		return 1<<32 - 1
	}
	return 1<<64 - 1
}

// size is the bytes f takes on the wire.
func (f *field) size() int {
	switch f.kind {
	case fieldU8:
		return 1
	case fieldU16:
		return 2
	case fieldU32:
		return 4
	case fieldU64:
		return 8
	case fieldBlob:
		return 4 + len(f.b)
	}
	return 2 + len(f.b)
}

// FuzzReader drives the codec with a script of field kinds. Written by a
// Writer with exactly enough room and read back by a Reader, every field
// comes back as it went in and the reader ends at the writer's end; with
// one byte less room, the writer latches an error. Then a Reader runs the
// same script over the value bytes themselves, arbitrary input: it must not
// panic, must return zero values once an error has latched, and the
// no-copy accessors (StrBytes, Blob) must return the message's own bytes.
func FuzzReader(f *testing.F) {
	f.Add([]byte{fieldU8, fieldU16, fieldU32, fieldU64}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{fieldStr, fieldStrBytes, fieldBlob}, []byte("\x04name\x00\x03abc"))
	f.Add([]byte{fieldStrBytes, fieldU64}, binary.LittleEndian.AppendUint16(nil, 0xFFFF))
	f.Add([]byte{fieldBlob, fieldBlob}, binary.LittleEndian.AppendUint32(nil, 1<<31))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{fieldU64, fieldStrBytes}, []byte{})
	f.Fuzz(func(t *testing.T, ops, src []byte) {
		fields := script(ops, src)
		size := 0
		for i := range fields {
			size += fields[i].size()
		}
		w := NewWriter(make([]byte, size))
		for i := range fields {
			fields[i].put(w)
		}
		if w.Err() != nil || w.Len() != size {
			t.Fatalf("writing %d bytes into %d: len %d, err %v", size, size, w.Len(), w.Err())
		}
		r := NewReader(w.Bytes())
		for i := range fields {
			want := &fields[i]
			got := want.get(r)
			if got.n != want.n&width(want.kind) || !bytes.Equal(got.b, want.b) {
				t.Fatalf("field %d (kind %d): read %v %q, wrote %v %q", i, want.kind, got.n, got.b, want.n&width(want.kind), want.b)
			}
		}
		if r.Err() != nil || r.n != size {
			t.Fatalf("read back to %d of %d bytes, err %v", r.n, size, r.Err())
		}
		if size > 0 {
			short := NewWriter(make([]byte, size-1))
			for i := range fields {
				fields[i].put(short)
			}
			if short.Err() == nil {
				t.Fatalf("%d bytes fit in %d", size, size-1)
			}
		}

		r = NewReader(src)
		for i, op := range ops {
			kind := int(op) % fieldKinds
			failed := r.Err() != nil
			got := (&field{kind: kind}).get(r)
			if r.n > len(src) {
				t.Fatalf("field %d (kind %d): read to %d of %d bytes", i, kind, r.n, len(src))
			}
			if failed && (got.n != 0 || len(got.b) != 0) {
				t.Fatalf("field %d (kind %d) read %v %q after an error", i, kind, got.n, got.b)
			}
			// What StrBytes and Blob return are the bytes just taken,
			// aliased in place.
			if kind != fieldStr && len(got.b) > 0 && &got.b[0] != &src[r.n-len(got.b)] {
				t.Fatalf("field %d (kind %d) returned bytes that are not the message's", i, kind)
			}
		}
	})
}
