// Package wire provides the little-endian message codec shared by the DAFS
// and NFS protocol implementations: bounded writers over registered message
// buffers and latching readers that survive malformed input.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrWire reports a malformed message.
var ErrWire = errors.New("wire: malformed message")

// Writer encodes a message into a buffer: a fixed one, or one a Grower
// enlarges as the message needs (e.g. a registered send slot). All
// integers are little-endian. Strings and byte blobs carry explicit length
// prefixes. Overflow latches an error that Err reports.
type Writer struct {
	buf []byte
	n   int
	err error
	g   Grower
}

// Grower is the room a Writer encodes into when the message sets its
// size. Grow returns a buffer of at least n bytes whose first bytes are
// the ones written so far, or, when it has no more room, the largest it
// has.
type Grower interface {
	Grow(n int) []byte
}

// NewWriter wraps buf.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Reset makes w a fresh writer over buf, so a Writer kept with a message
// buffer encodes every message sent from it without allocating.
func (w *Writer) Reset(buf []byte) { *w = Writer{buf: buf} }

// ResetGrow makes w a fresh writer over the room g gives it: each Need
// that outruns the buffer in hand asks g for one that fits, so a message
// encodes once and holds only the room it needs.
func (w *Writer) ResetGrow(g Grower) { *w = Writer{g: g} }

// Need reserves n bytes and returns them for in-place filling (nil after an
// error or on overflow).
func (w *Writer) Need(n int) []byte {
	if w.err != nil {
		return nil
	}
	if w.n+n > len(w.buf) && w.g != nil {
		w.buf = w.g.Grow(w.n + n)
	}
	if w.n+n > len(w.buf) {
		w.err = fmt.Errorf("%w: encode overflow at %d+%d/%d", ErrWire, w.n, n, len(w.buf))
		return nil
	}
	b := w.buf[w.n : w.n+n]
	w.n += n
	return b
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	if b := w.Need(1); b != nil {
		b[0] = v
	}
}

// U16 writes a 16-bit integer.
func (w *Writer) U16(v uint16) {
	if b := w.Need(2); b != nil {
		binary.LittleEndian.PutUint16(b, v)
	}
}

// U32 writes a 32-bit integer.
func (w *Writer) U32(v uint32) {
	if b := w.Need(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}

// U64 writes a 64-bit integer.
func (w *Writer) U64(v uint64) {
	if b := w.Need(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}

// Str writes a length-prefixed string (max 64 KiB - 1).
func (w *Writer) Str(s string) {
	if len(s) > 0xFFFF {
		w.err = fmt.Errorf("%w: string too long (%d)", ErrWire, len(s))
		return
	}
	w.U16(uint16(len(s)))
	if b := w.Need(len(s)); b != nil {
		copy(b, s)
	}
}

// Blob writes a length-prefixed byte slice.
func (w *Writer) Blob(p []byte) {
	w.U32(uint32(len(p)))
	if b := w.Need(len(p)); b != nil {
		copy(b, p)
	}
}

// Len returns the encoded length so far.
func (w *Writer) Len() int { return w.n }

// Err returns the latched error, if any.
func (w *Writer) Err() error { return w.err }

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf[:w.n] }

// Reader decodes a message. Underflow latches an error; accessors return
// zero values after an error so decoders can run to completion and check
// once.
type Reader struct {
	buf []byte
	n   int
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset makes r a fresh reader over buf (see Writer.Reset).
func (r *Reader) Reset(buf []byte) { *r = Reader{buf: buf} }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.n+n > len(r.buf) {
		r.err = fmt.Errorf("%w: decode underflow at %d+%d/%d", ErrWire, r.n, n, len(r.buf))
		return nil
	}
	b := r.buf[r.n : r.n+n]
	r.n += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a 16-bit integer.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a 32-bit integer.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a 64-bit integer.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes reads a length-prefixed string as its bytes, without copying
// (like Blob, they alias the underlying buffer): for a name that is only
// looked up, never kept.
func (r *Reader) StrBytes() []byte {
	n := int(r.U16())
	return r.take(n)
}

// Blob returns the decoded bytes without copying (they alias the underlying
// buffer; callers that keep them must copy).
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	return r.take(n)
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }
