// Package enc provides the minimal length-prefixed binary writer/reader
// used for page images and log-record payloads. All integers are little
// endian and byte strings are 4-byte length prefixed, with 0xFFFFFFFF
// reserved to distinguish a nil slice from an empty one (nil keys mean
// "-infinity" in interval bounds, so the distinction is load-bearing).
package enc

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("enc: truncated input")

const nilMarker = math.MaxUint32

// Writer accumulates an encoded byte string.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a 16-bit integer.
func (w *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U32 appends a 32-bit integer.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U64 appends a 64-bit integer.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// Bytes32 appends a length-prefixed byte string, preserving nil-ness.
func (w *Writer) Bytes32(b []byte) {
	if b == nil {
		w.U32(nilMarker)
		return
	}
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes an encoding produced by Writer.
type Reader struct {
	buf   []byte
	off   int
	err   error
	alias bool
}

// NewReader returns a reader over b whose byte strings are fresh copies:
// the decoded values stay valid whatever later happens to b. Log
// payloads are decoded this way — their buffers are shared and reused.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// NewAliasReader returns a reader over b whose byte strings are
// subslices of b instead of copies, capacity-capped at their own length
// so that appending to one reallocates rather than overwriting the bytes
// that follow it. Page images are decoded this way: an image is never
// modified once written, so a decoded node can share it and a page miss
// costs no per-key allocation. The caller must not modify b afterwards.
func NewAliasReader(b []byte) *Reader { return &Reader{buf: b, alias: true} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a 16-bit integer.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a 32-bit integer.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a 64-bit integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bytes32 reads a length-prefixed byte string, preserving nil-ness. The
// result is a fresh copy, or a capacity-capped subslice of the input for
// a reader made by NewAliasReader.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n == nilMarker {
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	if r.alias {
		return b[:n:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
