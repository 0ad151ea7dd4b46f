package enc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.Bytes32([]byte("hello"))
	w.Bytes32(nil)
	w.Bytes32([]byte{})

	r := NewReader(w.Bytes())
	if r.U8() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("u8/bool round trip")
	}
	if r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0102030405060708 {
		t.Fatal("integer round trip")
	}
	if string(r.Bytes32()) != "hello" {
		t.Fatal("bytes round trip")
	}
	if r.Bytes32() != nil {
		t.Fatal("nil-ness not preserved")
	}
	if b := r.Bytes32(); b == nil || len(b) != 0 {
		t.Fatal("empty slice not preserved")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b []byte, c uint16, d []byte) bool {
		var w Writer
		w.U64(a)
		w.Bytes32(b)
		w.U16(c)
		w.Bytes32(d)
		r := NewReader(w.Bytes())
		ga := r.U64()
		gb := r.Bytes32()
		gc := r.U16()
		gd := r.Bytes32()
		if r.Err() != nil {
			return false
		}
		eq := func(x, y []byte) bool {
			if x == nil || y == nil {
				return x == nil && y == nil
			}
			return bytes.Equal(x, y)
		}
		return ga == a && gc == c && eq(gb, b) && eq(gd, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var w Writer
	w.U64(42)
	w.Bytes32([]byte("payload"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.U64()
		_ = r.Bytes32()
		if cut < len(full) && r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadsAfterErrorReturnZero(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if r.U32() != 0 || r.Bytes32() != nil || r.Bool() {
		t.Fatal("post-error reads must be zero values")
	}
}

func TestBytes32CopyIsIndependent(t *testing.T) {
	var w Writer
	w.Bytes32([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Bytes32()
	got[0] = 99
	r2 := NewReader(buf)
	if r2.Bytes32()[0] != 1 {
		t.Fatal("decoded slice aliases the input buffer")
	}
}

func aliasFixture() []byte {
	var w Writer
	w.Bytes32([]byte("first"))
	w.Bytes32([]byte("second"))
	w.Bytes32(nil)
	w.Bytes32([]byte{})
	return w.Bytes()
}

// TestReaderCopies: NewReader's byte strings are copies — changing the
// input afterwards must not change them.
func TestReaderCopies(t *testing.T) {
	buf := aliasFixture()
	r := NewReader(buf)
	a, b := r.Bytes32(), r.Bytes32()
	for i := range buf {
		buf[i] = 0xEE
	}
	if string(a) != "first" || string(b) != "second" {
		t.Fatalf("copying reader results changed with the input: %q %q", a, b)
	}
}

// TestAliasReader: NewAliasReader's byte strings are capacity-capped
// subslices of the input — no copy, nil-ness preserved, and appending to
// one leaves the bytes after it alone.
func TestAliasReader(t *testing.T) {
	buf := aliasFixture()
	orig := append([]byte(nil), buf...)
	r := NewAliasReader(buf)
	a, b, n, e := r.Bytes32(), r.Bytes32(), r.Bytes32(), r.Bytes32()
	if r.Err() != nil || string(a) != "first" || string(b) != "second" {
		t.Fatalf("alias round trip: %q %q err=%v", a, b, r.Err())
	}
	if n != nil || e == nil || len(e) != 0 {
		t.Fatalf("nil-ness not preserved: nil=%v empty=%v", n, e)
	}
	if &a[0] != &buf[4] {
		t.Fatal("aliasing reader copied instead of aliasing")
	}
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("aliases not capacity-capped: cap %d/%d", cap(a), cap(b))
	}
	a = append(a, "XXXXXXXX"...)
	b = append(b, "YYYYYYYY"...)
	if !bytes.Equal(buf, orig) {
		t.Fatal("appending to an aliased result overwrote the input")
	}
	if string(a) != "firstXXXXXXXX" || string(b) != "secondYYYYYYYY" {
		t.Fatalf("append results %q %q", a, b)
	}
}
