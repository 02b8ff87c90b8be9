package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// readVarint runs the decoder's varint reader on the varint at pos of b,
// with b's end the end of the input.
func readVarint(b []byte, pos int) (v uint64, next int, padded bool) {
	d := decoder{buf: b}
	v, next = d.varint(pos)
	return v, next, d.padded
}

// TestVarintReaderMatchesUvarint holds the word-at-a-time reader to
// binary.Uvarint: every length from one byte to ten, at the front of a
// long input (read as one word, plus a byte or two past it) and at every
// distance from the input's end (where fewer than eight bytes remain);
// padded spellings, which must decode and set padded; a tenth byte
// above 1 and an eleventh byte, which must be refused; and every cut
// short of a varint's end, which must be refused too.
func TestVarintReaderMatchesUvarint(t *testing.T) {
	rng := sim.NewRNG(5)
	// junk follows a varint, so no terminator it holds ends the read.
	junk := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	// check reads enc at offset 3 of an input holding tail bytes after
	// it, wanting what binary.Uvarint says of enc.
	check := func(enc []byte, tail int, wantPadded bool) {
		t.Helper()
		want, n := binary.Uvarint(enc)
		if n != len(enc) {
			t.Fatalf("% x: not one whole varint (binary.Uvarint: %d)", enc, n)
		}
		b := append(append(junk(3), enc...), junk(tail)...)
		v, next, padded := readVarint(b, 3)
		if v != want || next != 3+n || padded != wantPadded {
			t.Fatalf("% x with %d bytes after: got %d, next %d, padded %v; want %d, next %d, padded %v",
				enc, tail, v, next, padded, want, 3+n, wantPadded)
		}
		if n <= 8 {
			w := binary.LittleEndian.Uint64(append(bytes.Clone(enc), make([]byte, 8)...))
			if v, n2, p := varintWord(w); v != want || n2 != n || p != wantPadded {
				t.Fatalf("% x: varintWord gives %d, length %d, padded %v; want %d, length %d, padded %v",
					enc, v, n2, p, want, n, wantPadded)
			}
		}
	}
	refuse := func(b []byte, pos int, why string) {
		t.Helper()
		if v, next, _ := readVarint(b, pos); next >= 0 {
			t.Fatalf("% x at %d (%s): read %d, next %d; want a refusal", b, pos, why, v, next)
		}
	}
	for length := 1; length <= 10; length++ {
		lo, hi := uint64(0), ^uint64(0)
		if length > 1 {
			lo = 1 << (7*length - 7)
		}
		if length < 10 {
			hi = 1<<(7*length) - 1
		}
		values := []uint64{lo, hi}
		for i := 0; i < 50; i++ {
			values = append(values, lo+rng.Uint64()%(hi-lo+1))
		}
		for _, v := range values {
			enc := binary.AppendUvarint(nil, v)
			if len(enc) != length {
				t.Fatalf("%d: %d bytes, want %d", v, len(enc), length)
			}
			for tail := 0; tail <= 10; tail++ {
				check(enc, tail, false)
			}
			// Padded: one more byte per step, up to ten, the last zero.
			for p := bytes.Clone(enc); len(p) < 10; {
				p[len(p)-1] |= 0x80
				p = append(p, 0)
				for tail := 0; tail <= 10; tail++ {
					check(p, tail, true)
				}
			}
			// Cut short anywhere: the input ends inside the varint.
			for cut := 0; cut < length; cut++ {
				b := append(junk(3), enc[:cut]...)
				refuse(b, 3, "cut")
			}
		}
	}
	for tenth := 2; tenth < 256; tenth++ {
		enc := append(bytes.Repeat([]byte{0xFF}, 9), byte(tenth))
		if _, n := binary.Uvarint(enc); n > 0 {
			t.Fatalf("binary.Uvarint accepts % x", enc)
		}
		for tail := 0; tail <= 10; tail++ {
			refuse(append(append(junk(3), enc...), junk(tail)...), 3, "tenth byte above 1")
		}
	}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0)
	for tail := 0; tail <= 10; tail++ {
		refuse(append(append(junk(3), overlong...), junk(tail)...), 3, "eleven bytes")
	}
}
