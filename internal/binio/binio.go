// Package binio holds the primitives the binary checkpoint codecs share
// (relstore's catalog and segment sections, searchgraph's graph section): a
// buffered writer of magic strings, uvarints, length-prefixed strings and
// fixed-width float64 bits, and a reader that decodes them in place from
// one in-memory section.
//
// The reader converts the whole section to ONE string up front; Str returns
// substrings of it, so a decoded section's strings alias that single
// backing array instead of costing one allocation each. A transient reader
// skips the conversion and views the section's bytes in place, for a
// decoder that keeps none of the strings it reads. Either reader records
// the first error and turns every later read into a no-op returning a zero
// value, so a decoder may read a whole structure and check Err once.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Writer encodes to a buffered io.Writer. The first write error sticks:
// later writes do nothing and Flush returns it.
type Writer struct {
	w       *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

// NewWriter returns a Writer buffering into w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Raw writes s as is, with no length prefix: a section's magic string.
func (b *Writer) Raw(s string) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.WriteString(s)
}

// Uvarint writes v as an unsigned varint.
func (b *Writer) Uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.scratch[:], v)
	_, b.err = b.w.Write(b.scratch[:n])
}

// Str writes s with its length as a uvarint prefix.
func (b *Writer) Str(s string) {
	b.Uvarint(uint64(len(s)))
	b.Raw(s)
}

// Bytes writes p with its length as a uvarint prefix. Only tests call it:
// relstore's saveSegmentsV1Oracle writes the retired QSEGb1 layout with it
// for TestSegmentCodecMatchesV1Oracle.
func (b *Writer) Bytes(p []byte) {
	b.Uvarint(uint64(len(p)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

// IDs writes a strictly ascending list of non-negative ids: its length,
// then each id as its delta from the one before (the first from 0).
func (b *Writer) IDs(ids []int32) {
	b.Uvarint(uint64(len(ids)))
	prev := int32(0)
	for _, id := range ids {
		b.Uvarint(uint64(id - prev))
		prev = id
	}
}

// Float64 writes x's IEEE 754 bits, eight bytes little-endian, so every
// value (NaN payloads and signed zeros included) decodes to the same bits.
func (b *Writer) Float64(x float64) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(b.scratch[:8], math.Float64bits(x))
	_, b.err = b.w.Write(b.scratch[:8])
}

// Flush writes out the buffer and returns the first error.
func (b *Writer) Flush() error {
	if b.err != nil {
		return b.err
	}
	return b.w.Flush()
}

// Reader decodes a section held in memory.
type Reader struct {
	s   string
	off int
	err error
}

// NewReader returns a Reader over data positioned after magic, or one
// already failed if data does not start with magic.
func NewReader(data []byte, magic string) *Reader {
	return newReader(string(data), magic)
}

// NewTransientReader is NewReader without the copy: the reader views data
// in place, so every string it returns aliases data and stays valid only
// while data is left unmodified. It suits a decoder that copies whatever
// it keeps.
func NewTransientReader(data []byte, magic string) *Reader {
	return newReader(unsafe.String(unsafe.SliceData(data), len(data)), magic)
}

func newReader(s, magic string) *Reader {
	r := &Reader{s: s}
	if len(r.s) < len(magic) || r.s[:len(magic)] != magic {
		r.Failf("binio: bad section magic, want %q", magic)
		return r
	}
	r.off = len(magic)
	return r
}

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a decoder's own error, unless an earlier one is recorded,
// and moves the reader to the end of the section, so every later read
// finds nothing to read.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.s)
}

func (r *Reader) truncated(what string) {
	r.Failf("binio: truncated %s at offset %d", what, r.off)
}

// Uvarint decodes like binary.Uvarint, reading the section string in
// place, but refuses a varint longer than its minimal form (a zero final
// byte after the first), which binary.PutUvarint never writes: every value
// has one encoding, so an accepted section re-encodes to itself. A one-byte
// varint, the common case of a delta-encoded list, takes a short path.
func (r *Reader) Uvarint() uint64 {
	if off := r.off; off < len(r.s) {
		if c := r.s[off]; c < 0x80 {
			r.off = off + 1
			return uint64(c)
		}
	}
	return r.uvarint()
}

// uvarint is Uvarint's long path.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i, shift := 0, uint(0); i < binary.MaxVarintLen64 && r.off+i < len(r.s); i, shift = i+1, shift+7 {
		c := r.s[r.off+i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break // overflows 64 bits
			}
			if i > 0 && c == 0 {
				r.Failf("binio: non-minimal varint at offset %d", r.off)
				return 0
			}
			r.off += i + 1
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
	}
	r.truncated("varint")
	return 0
}

// IDs reads a list Writer.IDs wrote and appends its ids to dst. The ids
// must ascend strictly and stay below limit at every id, not just the
// last, so a corrupt delta can neither wrap an id negative nor point past
// what the ids index. This is the decoders' hottest loop, so a one-byte
// length and one- and two-byte deltas decode inline.
func (r *Reader) IDs(dst []int32, limit int) []int32 {
	s, off := r.s, r.off
	var n int
	if off < len(s) && s[off] < 0x80 && int(s[off]) < len(s)-off { // Count's bound
		n = int(s[off])
		off++
	} else if n = r.Count("id"); r.err != nil {
		return dst
	} else {
		off = r.off
	}
	dst = slices.Grow(dst, n) // n is bounded by the bytes left
	var id uint64
	for j := 0; j < n; j++ {
		var d uint64
		if off < len(s) && s[off] < 0x80 {
			d = uint64(s[off])
			off++
		} else if off+1 < len(s) && s[off+1]-1 < 0x7f { // a minimal two-byte varint
			d = uint64(s[off]&0x7f) | uint64(s[off+1])<<7
			off += 2
		} else {
			r.off = off
			if d = r.uvarint(); r.err != nil {
				return dst
			}
			off = r.off
		}
		// d < limit-id keeps id+d below limit and cannot overflow.
		if (j > 0 && d == 0) || d >= uint64(limit)-id {
			r.Failf("binio: id list is not strictly ascending below %d", limit)
			return dst
		}
		id += d
		dst = append(dst, int32(id))
	}
	r.off = off
	return dst
}

// Count reads a uvarint that will be used as an allocation size, bounding
// it by the bytes remaining so corrupt input cannot force a huge
// allocation. Every counted item must therefore take at least one byte.
func (r *Reader) Count(what string) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.s)-r.off) {
		r.Failf("binio: %s count %d exceeds input", what, v)
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string, a substring of the section.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.s)-r.off) {
		r.truncated("string")
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// Float64 reads eight bytes of little-endian IEEE 754 bits.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.s)-r.off < 8 {
		r.truncated("float64")
		return 0
	}
	var bits uint64
	for i := 7; i >= 0; i-- {
		bits = bits<<8 | uint64(r.s[r.off+i])
	}
	r.off += 8
	return math.Float64frombits(bits)
}

// End fails the reader unless every byte of the section has been read, so
// a decoder that accepts a section accepts exactly its encoding.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.s) {
		r.Failf("binio: %d trailing bytes at offset %d", len(r.s)-r.off, r.off)
	}
	return r.err
}
