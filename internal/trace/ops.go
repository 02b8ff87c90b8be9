package trace

import (
	"encoding/binary"
	"fmt"

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
	rec  []byte
	n    int
	span uint64 // one past the highest address touched; 0 if none
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

// sameWire reports whether two ops have identical wire encodings: the
// always-encoded fields plus whichever optional fields a's kind
// serializes. Fields the format drops for this kind are ignored — a full
// struct compare would see them (a stray Addr on a fence), split the
// run, and break encode ∘ decode ∘ encode byte-identity.
func sameWire(a, b Op) bool {
	if a.Kind != b.Kind || a.Gap != b.Gap || a.Instrs != b.Instrs {
		return false
	}
	if a.Kind.HasAddr() && a.Addr != b.Addr {
		return false
	}
	if a.Kind.HasVal() && a.Val != b.Val {
		return false
	}
	if a.Kind == config.TraceCAS && a.Val2 != b.Val2 {
		return false
	}
	return true
}

// maxDelta bounds Gap and Instrs, in a file and in a builder alike, so
// nothing can be built that would not read back.
const maxDelta = 1 << 62

// checkOp is the per-op validity rule, applied exactly once to every op
// of every stream: by OpsBuilder.Append to ops that arrive as values,
// by Decode's scan to ops that arrive as bytes. index is the op's
// position in its stream, for the message.
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
	span   uint64
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

// Append adds one operation. It rejects, with a *FormatError naming the
// field, a bad kind, a gap or instruction delta outside [0, 2^62], an
// unaligned address, and any op after the halt; a rejected op leaves
// the builder unchanged.
func (b *OpsBuilder) Append(op Op) error {
	if b.halted {
		return formatErr("halt", "op %d follows the halt at op %d", b.n, b.n-1)
	}
	if err := checkOp(op, b.n); err != nil {
		return err
	}
	if b.n > 0 && sameWire(b.last, op) {
		b.run++
		b.n++
		return nil
	}
	rec := b.rec
	if b.run > 0 {
		rec = binary.AppendUvarint(append(rec, rleMarker), b.run)
		b.run = 0
	}
	rec = append(rec, byte(op.Kind))
	rec = binary.AppendUvarint(rec, uint64(op.Gap))
	rec = binary.AppendUvarint(rec, uint64(op.Instrs))
	if op.Kind.HasAddr() {
		rec = binary.AppendUvarint(rec, zigzag(int64(op.Addr-b.prev)))
		b.prev = op.Addr
		if op.Addr >= b.span {
			b.span = op.Addr + 8
		}
	}
	if op.Kind.HasVal() {
		rec = binary.AppendUvarint(rec, op.Val)
	}
	if op.Kind == config.TraceCAS {
		rec = binary.AppendUvarint(rec, op.Val2)
	}
	b.rec, b.last = rec, op
	b.n++
	b.halted = op.Kind == config.TraceHalt
	return nil
}

// Finish returns the stream. It rejects an empty stream and one that
// does not end in a halt (Append has already refused a halt anywhere
// else). The result aliases the builder's buffer, which is safe because
// a finished builder accepts no further op.
func (b *OpsBuilder) Finish() (Ops, error) {
	if b.n == 0 {
		return Ops{}, formatErr("ops", "stream is empty")
	}
	if !b.halted {
		return Ops{}, formatErr("halt", "stream does not end in halt (last of %d ops is %s)", b.n, b.last.Kind)
	}
	return Ops{rec: b.rec[:len(b.rec):len(b.rec)], n: b.n, span: b.span}, nil
}

// rehomed returns the stream with every address shifted by off.
// Addresses are delta-coded from 0, so the shift lands entirely in the
// first address-carrying record; every later record, and every repeat
// marker, is copied as is. Runs stay maximal: whether a neighbour is
// wire-identical to that record depends on the neighbour's own delta
// being zero, which the shift does not touch.
func (o Ops) rehomed(off uint64) Ops {
	if off == 0 || o.span == 0 {
		return o
	}
	rec, pos := o.rec, 0
	for { // skip the leading address-free records (fences) and their runs
		if rec[pos] == rleMarker {
			_, pos = uvarintAt(rec, pos+1)
			continue
		}
		kind := config.TraceOp(rec[pos])
		_, pos = uvarintAt(rec, pos+1) // gap
		_, pos = uvarintAt(rec, pos)   // instrs
		if kind.HasAddr() {
			break
		}
	}
	first, end := uvarintAt(rec, pos)
	var delta [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(delta[:], zigzag(unzigzag(first)+int64(off)))
	out := make([]byte, 0, pos+n+len(rec)-end)
	out = append(out, rec[:pos]...)
	out = append(out, delta[:n]...)
	out = append(out, rec[end:]...)
	return Ops{rec: out, n: o.n, span: o.span + off}
}

// FormatError is the one error type for a malformed trace, whichever
// path met it: OpsBuilder (ops arriving as values), Decode (a file) or
// Trace.Validate (cross-stream structure). Field names what was wrong —
// an op field ("kind", "gap", "instrs", "addr", "halt"), a count
// ("ops", "streams", "initmem"), or a header field.
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
