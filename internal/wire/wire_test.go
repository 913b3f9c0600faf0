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

// ladder is a Grower over fixed rooms of 4, 16 and 64 bytes: each Grow
// moves the bytes so far into the smallest room that fits.
type ladder struct {
	rooms [3][]byte
	cur   []byte
	grows int
}

func (l *ladder) Grow(n int) []byte {
	for _, r := range l.rooms {
		if len(r) >= n || len(r) == 64 {
			if len(r) > len(l.cur) {
				copy(r, l.cur)
				l.cur = r
				l.grows++
			}
			return l.cur
		}
	}
	return l.cur
}

// A Writer reset over a Grower asks for room only when a Need outruns the
// buffer in hand, keeps what it wrote across each move, encodes without
// allocating, and reports an overflow once the Grower has no more room.
func TestWriterGrowsOnDemand(t *testing.T) {
	l := &ladder{rooms: [3][]byte{make([]byte, 4), make([]byte, 16), make([]byte, 64)}}
	var w Writer
	encode := func() {
		l.cur, l.grows = nil, 0
		w.ResetGrow(l)
		w.U16(0xBEEF)
		w.U64(0x0123456789ABCDEF)
		w.Str("twenty-two bytes long!")
	}
	if a := testing.AllocsPerRun(100, encode); a != 0 {
		t.Errorf("encoding through a Grower allocates %.1f times", a)
	}
	if w.Err() != nil || w.Len() != 34 || l.grows != 3 || len(l.cur) != 64 {
		t.Fatalf("len %d, %d grows into %d B, err %v; want 34 B in three grows into 64 B", w.Len(), l.grows, len(l.cur), w.Err())
	}
	r := NewReader(w.Bytes())
	if r.U16() != 0xBEEF || r.U64() != 0x0123456789ABCDEF || r.Str() != "twenty-two bytes long!" || r.Err() != nil {
		t.Fatal("bytes lost across a grow")
	}
	w.Blob(make([]byte, 31))
	if w.Err() == nil || w.Len() != 38 {
		t.Fatalf("a blob past the last room: len %d, err %v; want an overflow after its length prefix", w.Len(), w.Err())
	}
}
