package binio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestReaderUvarint pins the in-place varint decoder to binary.Uvarint:
// the same value and length on every input, and a refusal exactly where
// binary.Uvarint reports a truncated or overlong varint or the varint is
// longer than binary.PutUvarint writes its value.
func TestReaderUvarint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	inputs := [][]byte{
		{}, {0}, {1}, {0x7f}, {0x80}, {0x80, 0}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2}, bytes.Repeat([]byte{0x80}, 11),
		{0x81, 0}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0},
	}
	for i := 0; i < 2000; i++ {
		in := make([]byte, r.Intn(12))
		for j := range in {
			in[j] = byte(r.Intn(256))
			if r.Intn(3) > 0 {
				in[j] |= 0x80
			}
		}
		inputs = append(inputs, binary.AppendUvarint(nil, r.Uint64()>>r.Intn(64)), in)
	}
	for _, in := range inputs {
		want, n := binary.Uvarint(in)
		br := NewReader(in, "")
		got := br.Uvarint()
		if n <= 0 || n != len(binary.AppendUvarint(nil, want)) {
			if br.Err() == nil {
				t.Errorf("% x: decoded %d, binary.Uvarint refuses it", in, got)
			}
			continue
		}
		// The varint's n bytes alone decode to the same value, all read.
		exact := NewReader(in[:n], "")
		exact.Uvarint()
		if br.Err() != nil || got != want || exact.End() != nil {
			t.Errorf("% x: got (%d, %v, %v), want (%d, %d bytes)", in, got, br.Err(), exact.End(), want, n)
		}
	}
}

// TestRoundTrip writes every primitive and reads it back: the same values
// (float64s by their bits), the whole section consumed, and a refusal at
// every truncation.
func TestRoundTrip(t *testing.T) {
	ids := []int32{0, 1, 127, 128, 255, 300, 16383, 16384, 20000, math.MaxInt32 - 1}
	floats := []float64{0, math.Copysign(0, -1), 1, -0.25, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Raw("MAGIC")
	w.Uvarint(1 << 40)
	w.Str("")
	w.Str("héllo")
	w.Bytes([]byte{0, 1, 2})
	for _, x := range floats {
		w.Float64(x)
	}
	w.IDs(ids)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	read := func(r *Reader) bool {
		ok := r.Uvarint() == 1<<40 && r.Str() == "" && r.Str() == "héllo" && r.Str() == "\x00\x01\x02"
		for _, x := range floats {
			ok = math.Float64bits(r.Float64()) == math.Float64bits(x) && ok
		}
		return slices.Equal(r.IDs(nil, math.MaxInt32), ids) && ok && r.End() == nil
	}
	if !read(NewReader(data, "MAGIC")) || !read(NewTransientReader(data, "MAGIC")) {
		t.Fatal("round trip changed a value or left bytes unread")
	}
	if r := NewReader(data, "MAGIX"); r.Err() == nil {
		t.Error("wrong magic accepted")
	}
	for n := len("MAGIC"); n < len(data); n++ {
		if read(NewReader(data[:n], "MAGIC")) {
			t.Errorf("section truncated to %d bytes accepted", n)
		}
	}
	if r := NewReader(append(data, 0), "MAGIC"); read(r) {
		t.Error("trailing byte accepted")
	}
}

// TestCountBoundsAllocation refuses a count larger than the bytes left.
func TestCountBoundsAllocation(t *testing.T) {
	r := NewReader(binary.AppendUvarint(nil, 3), "")
	if n := r.Count("item"); n != 0 || r.Err() == nil {
		t.Errorf("Count = %d, %v; want a refusal", n, r.Err())
	}
	r = NewReader(append(binary.AppendUvarint(nil, 2), 'a', 'b'), "")
	if n := r.Count("item"); n != 2 || r.Err() != nil {
		t.Errorf("Count = %d, %v; want 2", n, r.Err())
	}
}

// TestReaderIDs refuses an id list whose ids repeat, wrap or reach the
// limit, whose length passes the input, or whose delta is a non-minimal
// varint, on the inline paths as on the long one.
func TestReaderIDs(t *testing.T) {
	for _, in := range [][]byte{
		{2, 3, 0},             // repeated id
		{1, 10},               // id at the limit
		{2, 0, 0x89, 0x80, 1}, // a three-byte delta past the limit
		{2, 5, 0xff, 0xff, 3}, // wraps past the limit
		{3, 1, 1},             // length past the input
		{1, 0x81, 0},          // non-minimal two-byte delta
		{0x81, 0, 1},          // non-minimal length
		{2, 1, 0x80, 0x80, 0}, // non-minimal three-byte delta
	} {
		r := NewReader(in, "")
		if ids := r.IDs(nil, 10); r.Err() == nil {
			t.Errorf("% x: read %v, want a refusal", in, ids)
		}
	}
	r := NewReader([]byte{3, 0, 0x81, 0x01, 0x01}, "")
	if ids := r.IDs(nil, 1000); !slices.Equal(ids, []int32{0, 129, 130}) || r.End() != nil {
		t.Errorf("IDs = %v, %v; want [0 129 130]", ids, r.End())
	}
}
