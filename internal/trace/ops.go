package trace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/config"
)

// Ops is one stream's operation sequence, held in its wire form: the
// canonical version-2 op records of codec.go (maximal repeat runs,
// minimal varints, addresses delta-coded from 0) plus the expanded op
// count. There is no decoded form — Encode copies these bytes behind the
// header, Decode checks a file's bytes once and keeps them, and replay
// reads them through a Cursor one op at a time — so a resident trace
// costs its file size, not 48 bytes per op.
//
// An Ops is immutable and valid by construction. Only two paths make
// one: OpsBuilder (every op checked on Append, stream shape on Finish)
// and Decode (one validating scan). The zero value is the empty stream,
// which Trace.Validate rejects.
type Ops struct {
	rec []byte
	n   int
}

// Len reports the operation count (runs expanded, halt included).
func (o Ops) Len() int { return o.n }

// Size reports the resident size in bytes, which is also the stream's
// share of an encoded file.
func (o Ops) Size() int { return len(o.rec) }

// Cursor returns a reader positioned before the first operation.
func (o Ops) Cursor() Cursor { return Cursor{rec: o.rec} }

// Cursor reads an Ops front to back. Next yields exactly the Op values
// a materializing decoder would have put in a slice: fields the wire
// format does not carry for a kind (a fence's address, a load's value)
// are zero.
type Cursor struct {
	rec  []byte
	pos  int
	prev uint64 // the address the next delta applies to
	op   Op     // the record last decoded
	rep  uint64 // occurrences of op still owed by a repeat marker
}

// Next returns the next operation, or false once the stream is
// exhausted. The bytes were validated when the Ops was made, so Next
// has no error path.
func (c *Cursor) Next() (Op, bool) {
	if c.rep == 0 {
		if c.pos >= len(c.rec) {
			return Op{}, false
		}
		if c.rec[c.pos] != rleMarker {
			c.record()
			return c.op, true
		}
		c.rep, c.pos = uvarintAt(c.rec, c.pos+1)
	}
	c.rep--
	return c.op, true
}

// record decodes the op record at pos into c.op and steps past it.
func (c *Cursor) record() {
	rec, pos := c.rec, c.pos
	op := Op{Kind: config.TraceOp(rec[pos])}
	var v uint64
	v, pos = uvarintAt(rec, pos+1)
	op.Gap = int64(v)
	v, pos = uvarintAt(rec, pos)
	op.Instrs = int64(v)
	if op.Kind.HasAddr() {
		v, pos = uvarintAt(rec, pos)
		c.prev += uint64(unzigzag(v))
		op.Addr = c.prev
	}
	if op.Kind.HasVal() {
		op.Val, pos = uvarintAt(rec, pos)
	}
	if op.Kind == config.TraceCAS {
		op.Val2, pos = uvarintAt(rec, pos)
	}
	c.op, c.pos = op, pos
}

// uvarintAt reads the varint at b[pos:] and returns it with the offset
// just past it. It trusts its input — Cursor only ever sees validated
// bytes — which keeps it small enough to inline into the cursor.
func uvarintAt(b []byte, pos int) (uint64, int) {
	v := uint64(b[pos])
	if v < 0x80 {
		return v, pos + 1
	}
	v &= 0x7f
	for s := 7; ; s += 7 {
		pos++
		c := uint64(b[pos])
		v |= c & 0x7f << s
		if c < 0x80 {
			return v, pos + 1
		}
	}
}

func zigzag(v int64) uint64   { return uint64(v)<<1 ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// maxDelta bounds Gap and Instrs, in a file and in a builder alike, so
// nothing can be built that would not read back.
const maxDelta = 1 << 62

// checkOp is the per-op validity rule, worded: OpsBuilder.Append (ops
// as values) and Decode's scan (ops as bytes) test its conditions on
// each op's fields in place, once per op, and call it only to word a
// refusal. index is the op's position in its stream, for the message.
func checkOp(op Op, index int) error {
	switch {
	case op.Kind >= config.NumTraceOps:
		return formatErr("kind", "op %d has bad kind %d", index, op.Kind)
	case op.Gap < 0 || op.Gap > maxDelta:
		return formatErr("gap", "op %d has gap %d outside [0, 2^62]", index, op.Gap)
	case op.Instrs < 0 || op.Instrs > maxDelta:
		return formatErr("instrs", "op %d has instrs %d outside [0, 2^62]", index, op.Instrs)
	case op.Kind.HasAddr() && op.Addr%8 != 0:
		return formatErr("addr", "op %d address %#x not 8-aligned", index, op.Addr)
	}
	return nil
}

// OpsBuilder is the only writer of Ops from op values. Append checks
// the op, folds it into the current run when it is wire-identical to
// its predecessor (so runs are maximal and the bytes canonical) and
// otherwise appends one record. The zero value is ready to use.
type OpsBuilder struct {
	rec    []byte
	n      int
	prev   uint64 // address the next delta is taken from
	last   Op     // the record most recently written
	run    uint64 // repeats of last not yet written as a marker
	halted bool
}

// Grow reserves room for n more encoded bytes.
func (b *OpsBuilder) Grow(n int) {
	if cap(b.rec)-len(b.rec) < n {
		b.rec = append(make([]byte, 0, len(b.rec)+n), b.rec...)
	}
}

// Len reports how many ops have been appended.
func (b *OpsBuilder) Len() int { return b.n }

// maxRecordLen bounds what one Append writes: a repeat marker with its
// count, then a record of a kind byte and at most five varints.
const maxRecordLen = 2 + 6*binary.MaxVarintLen64

// Append adds one operation. It rejects, with a *FormatError naming the
// field, a bad kind, a gap or instruction delta outside [0, 2^62], an
// unaligned address, and any op after the halt; a rejected op leaves
// the builder unchanged.
func (b *OpsBuilder) Append(op Op) error {
	if b.halted {
		return formatErr("halt", "op %d follows the halt at op %d", b.n, b.n-1)
	}
	kind := op.Kind
	if kind >= config.NumTraceOps || uint64(op.Gap) > maxDelta || uint64(op.Instrs) > maxDelta ||
		kind.HasAddr() && op.Addr%8 != 0 {
		return checkOp(op, b.n) // words the refusal
	}
	// A run continues only on the fields op's kind puts on the wire: a
	// stray Addr on a fence must not split one, or encode ∘ decode ∘
	// encode would not be byte-identical.
	last := &b.last
	if b.n > 0 && kind == last.Kind && op.Gap == last.Gap && op.Instrs == last.Instrs &&
		(!kind.HasAddr() || op.Addr == last.Addr) && (!kind.HasVal() || op.Val == last.Val) &&
		(kind != config.TraceCAS || op.Val2 == last.Val2) {
		b.run++
		b.n++
		return nil
	}
	// With the room reserved, the appends below stay in b.rec's array,
	// so storing the result back rewrites only the length: no pointer
	// store, no write barrier per op.
	if cap(b.rec)-len(b.rec) < maxRecordLen {
		b.rec = slices.Grow(b.rec, maxRecordLen)
	}
	rec := b.rec
	if b.run > 0 {
		rec = binary.AppendUvarint(append(rec, rleMarker), b.run)
		b.run = 0
	}
	rec = append(rec, byte(kind))
	rec = binary.AppendUvarint(rec, uint64(op.Gap))
	rec = binary.AppendUvarint(rec, uint64(op.Instrs))
	if kind.HasAddr() {
		rec = binary.AppendUvarint(rec, zigzag(int64(op.Addr-b.prev)))
		b.prev = op.Addr
	}
	if kind.HasVal() {
		rec = binary.AppendUvarint(rec, op.Val)
	}
	if kind == config.TraceCAS {
		rec = binary.AppendUvarint(rec, op.Val2)
	}
	b.rec, b.last = b.rec[:len(rec)], op
	b.n++
	b.halted = kind == config.TraceHalt
	return nil
}

// Finish returns the stream. It rejects an empty stream and one that
// does not end in a halt (Append has already refused a halt anywhere
// else). The result aliases the builder's buffer, which is safe because
// a finished builder accepts no further op, unless more than an eighth
// of the buffer is unused room (a Grow estimate, or append doubling):
// then the records move to an exact-size array, so a resident stream
// does not pin the room it never filled.
func (b *OpsBuilder) Finish() (Ops, error) {
	if b.n == 0 {
		return Ops{}, formatErr("ops", "stream is empty")
	}
	if !b.halted {
		return Ops{}, formatErr("halt", "stream does not end in halt (last of %d ops is %s)", b.n, b.last.Kind)
	}
	rec := b.rec
	if cap(rec)-len(rec) > len(rec)/8 {
		rec = slices.Clone(rec)
	}
	return Ops{rec: rec[:len(rec):len(rec)], n: b.n}, nil
}

// FormatError is the one error type for a malformed trace, whichever
// path met it: OpsBuilder (ops arriving as values), Decode (a file),
// Trace.Validate (cross-stream structure) or SynthParams.Validate (a
// trace that would be malformed if synthesized). Field names what was
// wrong — an op field ("kind", "gap", "instrs", "addr", "halt"), a count
// ("ops", "streams", "initmem"), a header field, or a SynthParams field.
type FormatError struct {
	Field string
	Msg   string
}

func (e *FormatError) Error() string { return "trace: " + e.Msg }

func formatErr(field, format string, args ...any) error {
	return &FormatError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// inCore prefixes a *FormatError from a per-stream path (OpsBuilder,
// checkOp) with the stream's core id, keeping its type and field.
func inCore(core int, err error) error {
	fe := err.(*FormatError)
	return &FormatError{Field: fe.Field, Msg: fmt.Sprintf("core %d: %s", core, fe.Msg)}
}
