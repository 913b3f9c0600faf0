package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	buf := make([]byte, 256)
	w := NewWriter(buf)
	w.U8(0xAB)
	w.U16(0xCDEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Str("name with spaces")
	w.Blob([]byte{9, 8, 7})
	w.Str("") // empty string
	w.Blob(nil)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0xCDEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0123456789ABCDEF {
		t.Fatal("integers broken")
	}
	if r.Str() != "name with spaces" {
		t.Fatal("string broken")
	}
	if !bytes.Equal(r.Blob(), []byte{9, 8, 7}) {
		t.Fatal("blob broken")
	}
	if r.Str() != "" || len(r.Blob()) != 0 {
		t.Fatal("empty values broken")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestWriterOverflowLatches(t *testing.T) {
	w := NewWriter(make([]byte, 3))
	w.U16(1)
	w.U16(2) // overflow
	if w.Err() == nil {
		t.Fatal("overflow not detected")
	}
	before := w.Len()
	w.U64(3) // after error: no effect
	if w.Len() != before {
		t.Fatal("writes continued after error")
	}
}

func TestReaderUnderflowLatches(t *testing.T) {
	r := NewReader([]byte{1})
	r.U32()
	if r.Err() == nil {
		t.Fatal("underflow not detected")
	}
	if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Blob() != nil {
		t.Fatal("reads after error not zero")
	}
}

func TestStrTooLong(t *testing.T) {
	w := NewWriter(make([]byte, 1<<20))
	w.Str(string(make([]byte, 0x10000)))
	if w.Err() == nil {
		t.Fatal("oversized string accepted")
	}
}

func TestBlobLiesAboutLength(t *testing.T) {
	// A blob header claiming more bytes than the message has must latch
	// an error, not panic or over-read.
	w := NewWriter(make([]byte, 16))
	w.U32(1000) // bogus length prefix
	r := NewReader(w.Bytes())
	if r.Blob() != nil || r.Err() == nil {
		t.Fatal("lying blob length not caught")
	}
}

func TestNeedReturnsWritableWindow(t *testing.T) {
	buf := make([]byte, 8)
	w := NewWriter(buf)
	win := w.Need(4)
	copy(win, "abcd")
	if string(w.Bytes()) != "abcd" {
		t.Fatalf("bytes %q", w.Bytes())
	}
	if w.Need(5) != nil || w.Err() == nil {
		t.Fatal("over-need not caught")
	}
}

// Property: any (string, blob, ints) tuple round-trips.
func TestRoundTripProperty(t *testing.T) {
	prop := func(a uint8, b uint16, c uint32, d uint64, s string, blob []byte) bool {
		if len(s) > 0xFFFF {
			s = s[:0xFFFF]
		}
		buf := make([]byte, 1+2+4+8+2+len(s)+4+len(blob)+16)
		w := NewWriter(buf)
		w.U8(a)
		w.U16(b)
		w.U32(c)
		w.U64(d)
		w.Str(s)
		w.Blob(blob)
		if w.Err() != nil {
			return false
		}
		r := NewReader(w.Bytes())
		ok := r.U8() == a && r.U16() == b && r.U32() == c && r.U64() == d &&
			r.Str() == s && bytes.Equal(r.Blob(), blob) && r.Err() == nil
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A codec kept with a message buffer is Reset for every message: Reset
// clears a latched error and the position as well as the buffer.
func TestResetStartsOver(t *testing.T) {
	var w Writer
	w.Reset(make([]byte, 2))
	w.U32(1)
	if w.Err() == nil {
		t.Fatal("overflow not latched")
	}
	buf := make([]byte, 4)
	w.Reset(buf)
	w.U32(7)
	if w.Err() != nil || w.Len() != 4 {
		t.Fatalf("after Reset: len %d err %v", w.Len(), w.Err())
	}
	var r Reader
	r.Reset(buf[:2])
	r.U32()
	if r.Err() == nil {
		t.Fatal("underflow not latched")
	}
	r.Reset(buf)
	if v := r.U32(); v != 7 || r.Err() != nil {
		t.Fatalf("after Reset: read %d err %v", v, r.Err())
	}
}
