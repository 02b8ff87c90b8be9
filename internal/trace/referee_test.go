package trace

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// The referee: the codec as it stood before streams were packed — every
// op materialized as a 48-byte Op in a slice, decoded by expanding
// repeat markers, validated by walking the slices, encoded by walking
// them again. Its writer and reader are written from the version-4
// format comment in codec.go alone, calling none of codec.go's or
// ops.go's helpers, so it is kept, in tests only, as the independent
// statement of what the format means: the packed Decode must accept
// exactly what refDecode accepts, a Cursor must yield exactly
// refDecode's ops, and Encode must write exactly refEncode's bytes
// (FuzzTraceRoundTrip). Version-2 and version-3 writers sit beside it:
// the golden hashes taken while version 2 was the format are hashes of
// its bytes, and neither older version may be read.

type refStream struct {
	Core int
	Ops  []Op
}

type refTrace struct {
	Meta    Meta
	InitMem []MemWord
	Streams []refStream
}

func (t *refTrace) ops() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s.Ops)
	}
	return n
}

// refValidate is the pre-packing Trace.Validate: every rejection the
// format has, in one walk.
func (t *refTrace) validate() error {
	if t.Meta.Sys.Cores <= 0 {
		return fmt.Errorf("trace: header cores must be positive, got %d", t.Meta.Sys.Cores)
	}
	if t.Meta.Sys.Cores > config.MaxCores {
		return fmt.Errorf("trace: header cores %d exceed the supported maximum", t.Meta.Sys.Cores)
	}
	for i, w := range t.InitMem {
		if w.Addr%8 != 0 {
			return fmt.Errorf("trace: init word %d at %#x not 8-aligned", i, w.Addr)
		}
		if i > 0 && w.Addr <= t.InitMem[i-1].Addr {
			return fmt.Errorf("trace: init memory not strictly ascending at %d", i)
		}
	}
	for i, s := range t.Streams {
		if s.Core < 0 || s.Core >= t.Meta.Sys.Cores {
			return fmt.Errorf("trace: stream %d core %d outside [0,%d)", i, s.Core, t.Meta.Sys.Cores)
		}
		if i > 0 && s.Core <= t.Streams[i-1].Core {
			return fmt.Errorf("trace: streams not strictly ascending at %d", i)
		}
		if len(s.Ops) == 0 {
			return fmt.Errorf("trace: core %d stream is empty", s.Core)
		}
		for j, op := range s.Ops {
			if op.Kind >= config.NumTraceOps {
				return fmt.Errorf("trace: core %d op %d has bad kind %d", s.Core, j, op.Kind)
			}
			if op.Gap < 0 || op.Instrs < 0 {
				return fmt.Errorf("trace: core %d op %d has negative gap/instrs", s.Core, j)
			}
			if op.Kind.HasAddr() && op.Addr%8 != 0 {
				return fmt.Errorf("trace: core %d op %d address %#x not 8-aligned", s.Core, j, op.Addr)
			}
			if op.Kind == config.TraceHalt && j != len(s.Ops)-1 {
				return fmt.Errorf("trace: core %d has halt at op %d before end of stream", s.Core, j)
			}
		}
		if last := s.Ops[len(s.Ops)-1]; last.Kind != config.TraceHalt {
			return fmt.Errorf("trace: core %d stream does not end in halt", s.Core)
		}
	}
	return nil
}

// refBudget restates decodeOpBudget: 4096 ops a byte of file, and
// never fewer than 4 Mi.
func refBudget(n int) int { return max(4096*n, 4<<20) }

// refEncode is the pre-packing Encode, writing version 4.
func refEncode(t *refTrace) ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	for _, v := range refGeometry(t.Meta.Sys) {
		if v < 0 {
			return nil, fmt.Errorf("trace: negative geometry field in header")
		}
	}
	data := rawEncode(t)
	if total := t.ops(); total > refBudget(len(data)) {
		return nil, fmt.Errorf("trace: %d total ops exceeds the decode budget", total)
	}
	return data, nil
}

// rawEncode is refEncode's serializer without its checks, so tests can
// put a malformed trace on the wire and see who refuses it.
func rawEncode(t *refTrace) []byte { return v4.file(t) }

// refGeometry lists the header's geometry fields in encoding order.
func refGeometry(sys config.System) [12]int64 {
	return [12]int64{
		int64(sys.Cores), int64(sys.L1Size), int64(sys.L1Ways),
		int64(sys.L2TileSize), int64(sys.L2Ways),
		int64(sys.L1HitLat), int64(sys.L2AccessLat),
		int64(sys.MemBase), int64(sys.MemSpread),
		int64(sys.WriteBuffer), int64(sys.MeshRows), int64(sys.MaxCycles),
	}
}

// refWriter is the referee's serializer.
type refWriter struct {
	buf []byte
}

func (w *refWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *refWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// header writes everything before the stream count.
func (w *refWriter) header(version uint64, t *refTrace) {
	w.buf = append(w.buf, "TSOCCTRC"...)
	w.uvarint(version)
	w.str(t.Meta.Protocol)
	w.str(t.Meta.Workload)
	w.uvarint(t.Meta.Seed)
	for _, v := range refGeometry(t.Meta.Sys) {
		w.uvarint(uint64(v))
	}
	w.uvarint(uint64(len(t.InitMem)))
	prevAddr := uint64(0)
	for _, word := range t.InitMem {
		w.uvarint(word.Addr - prevAddr) // the first word's delta is from 0
		prevAddr = word.Addr
		w.uvarint(word.Val)
	}
}

// addr writes the zigzag delta from *prev to a and moves *prev.
func (w *refWriter) addr(a uint64, prev *uint64) {
	d := int64(a - *prev)
	w.uvarint(uint64(d<<1) ^ uint64(d>>63))
	*prev = a
}

// vals writes the address and value fields op's kind carries.
func (w *refWriter) vals(op Op, prev *uint64) {
	if op.Kind.HasAddr() {
		w.addr(op.Addr, prev)
	}
	if op.Kind.HasVal() {
		w.uvarint(op.Val)
	}
	if op.Kind == config.TraceCAS {
		w.uvarint(op.Val2)
	}
}

// refCode is the shortest head code for a gap and an instruction count:
// both in the head when the gap is at most 14 and instrs is the gap or
// one more, else 30 (the gap follows) when instrs is the gap, else 31
// (both follow).
func refCode(gap, instrs uint64) byte {
	switch {
	case gap <= 14 && (instrs == gap || instrs == gap+1):
		return byte(2*gap + (instrs - gap))
	case instrs == gap:
		return 30
	}
	return 31
}

// record writes one op record (versions 3 and 4) with its shortest head code;
// *prev is the stream's running address.
func (w *refWriter) record(op Op, prev *uint64) {
	w.recordAs(op, prev, refCode(uint64(op.Gap), uint64(op.Instrs)))
}

// recordAs writes one op record (versions 3 and 4) with head code code, which
// must spell op's gap and instrs: the shortest, or a longer one.
func (w *refWriter) recordAs(op Op, prev *uint64, code byte) {
	w.buf = append(w.buf, code<<3|byte(op.Kind))
	if code >= 30 {
		w.uvarint(uint64(op.Gap))
	}
	if code == 31 {
		w.uvarint(uint64(op.Instrs))
	}
	w.vals(op, prev)
}

// recordV2 writes one version-2 op record: a kind byte, then gap and
// instrs uvarints.
func (w *refWriter) recordV2(op Op, prev *uint64) {
	w.buf = append(w.buf, byte(op.Kind))
	w.uvarint(uint64(op.Gap))
	w.uvarint(uint64(op.Instrs))
	w.vals(op, prev)
}

// marker writes a repeat marker (versions 3 and 4) for n more occurrences.
func (w *refWriter) marker(n int) {
	w.buf = append(w.buf, 0x07)
	w.uvarint(uint64(n))
}

// refFormat is one format version's op-record spelling; from version
// 4 on, each stream header also gives its records' length in bytes.
type refFormat struct {
	version uint64
	record  func(w *refWriter, op Op, prev *uint64)
	marker  byte
}

var (
	v4 = refFormat{4, (*refWriter).record, 0x07}
	v3 = refFormat{3, (*refWriter).record, 0x07}
	v2 = refFormat{2, (*refWriter).recordV2, 0xFF}
)

// records spells one stream canonically: one record per run of
// wire-identical ops, followed by a repeat marker if the run is longer
// than one.
func (f refFormat) records(ops []Op) []byte {
	var w refWriter
	prev := uint64(0)
	for i := 0; i < len(ops); {
		op := ops[i]
		f.record(&w, op, &prev)
		run := 0
		for i+1+run < len(ops) && sameWire(ops[i+1+run], op) {
			run++
		}
		if run > 0 {
			w.buf = append(w.buf, f.marker)
			w.uvarint(uint64(run))
		}
		i += 1 + run
	}
	return w.buf
}

// file writes t in format f, unchecked.
func (f refFormat) file(t *refTrace) []byte {
	var w refWriter
	w.header(f.version, t)
	w.uvarint(uint64(len(t.Streams)))
	for _, s := range t.Streams {
		w.stream(f.version, s.Core, len(s.Ops), f.records(s.Ops))
	}
	return w.buf
}

// stream writes one stream header, in the given version's framing, and
// the stream's records.
func (w *refWriter) stream(version uint64, core, nops int, records []byte) {
	w.uvarint(uint64(core))
	w.uvarint(uint64(nops))
	if version >= 4 {
		w.uvarint(uint64(len(records)))
	}
	w.buf = append(w.buf, records...)
}

// EncodeV2 writes t in version 2, for TestGoldenEncodings: its pinned
// hashes were taken while version 2 was the format.
func EncodeV2(t *Trace) []byte { return v2.file(unpack(t)) }

// refReader is the pre-packing decoder's varint reader: plain
// binary.Uvarint, no fast path, no canonical-form tracking.
type refReader struct {
	buf []byte
	pos int
}

func (d *refReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: bad or truncated varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *refReader) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return "", fmt.Errorf("trace: string length %d exceeds remaining input", n)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *refReader) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return 0, fmt.Errorf("trace: count %d exceeds remaining input", n)
	}
	return int(n), nil
}

// refDecode is the pre-packing Decode, reading version 4: it expands
// every repeat marker into Op values (which is why it must not be
// handed an RLE bomb) and validates the result afterwards.
func refDecode(data []byte) (*refTrace, error) {
	d := refReader{buf: data}
	if len(data) < 8 || string(data[:8]) != "TSOCCTRC" {
		return nil, fmt.Errorf("trace: bad magic")
	}
	d.pos = 8
	version, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if version != 4 {
		return nil, fmt.Errorf("trace: unsupported format version %d", version)
	}
	t := &refTrace{}
	if t.Meta.Protocol, err = d.str(); err != nil {
		return nil, err
	}
	if t.Meta.Workload, err = d.str(); err != nil {
		return nil, err
	}
	if t.Meta.Seed, err = d.uvarint(); err != nil {
		return nil, err
	}
	var geo [12]int64
	for i := range geo {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<62 {
			return nil, fmt.Errorf("trace: geometry field %d out of range", i)
		}
		geo[i] = int64(v)
	}
	t.Meta.Sys = config.System{
		Cores: int(geo[0]), L1Size: int(geo[1]), L1Ways: int(geo[2]),
		L2TileSize: int(geo[3]), L2Ways: int(geo[4]),
		L1HitLat: sim.Cycle(geo[5]), L2AccessLat: sim.Cycle(geo[6]),
		MemBase: sim.Cycle(geo[7]), MemSpread: sim.Cycle(geo[8]),
		WriteBuffer: int(geo[9]), MeshRows: int(geo[10]), MaxCycles: sim.Cycle(geo[11]),
	}
	nmem, err := d.count()
	if err != nil {
		return nil, err
	}
	addr := uint64(0)
	for i := 0; i < nmem; i++ {
		delta, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			addr = delta
		} else {
			next := addr + delta
			if next < addr {
				return nil, fmt.Errorf("trace: init memory address overflow")
			}
			addr = next
		}
		val, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		t.InitMem = append(t.InitMem, MemWord{Addr: addr, Val: val})
	}
	nstreams, err := d.count()
	if err != nil {
		return nil, err
	}
	opBudget := refBudget(len(data))
	for i := 0; i < nstreams; i++ {
		core, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if core > 1<<20 {
			return nil, fmt.Errorf("trace: stream core id %d out of range", core)
		}
		nopsU, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nopsU > uint64(opBudget) {
			return nil, fmt.Errorf("trace: ops count %d exceeds remaining decoder budget %d", nopsU, opBudget)
		}
		nops := int(nopsU)
		opBudget -= nops
		size, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if size > uint64(len(d.buf)-d.pos) {
			return nil, fmt.Errorf("trace: stream length %d exceeds remaining input", size)
		}
		// The records are read from data up to the stream's end only.
		end := d.pos + int(size)
		d.buf = data[:end]
		capHint := nops
		if rem := len(d.buf) - d.pos; capHint > rem {
			capHint = rem
		}
		s := refStream{Core: int(core), Ops: make([]Op, 0, capHint)}
		prev := uint64(0)
		for j := 0; j < nops; j++ {
			if d.pos >= len(d.buf) {
				return nil, fmt.Errorf("trace: truncated at core %d op %d", core, j)
			}
			head := d.buf[d.pos]
			d.pos++
			if head&7 == 7 { // a repeat marker, which is 0x07 exactly
				if head != 0x07 {
					return nil, fmt.Errorf("trace: core %d op %d: bad repeat marker %#x", core, j, head)
				}
				if j == 0 {
					return nil, fmt.Errorf("trace: core %d: repeat marker before any op", core)
				}
				count, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				if count < 1 || count > uint64(nops-j) {
					return nil, fmt.Errorf("trace: core %d op %d: repeat count %d exceeds declared ops", core, j, count)
				}
				last := s.Ops[len(s.Ops)-1]
				for k := uint64(0); k < count; k++ {
					s.Ops = append(s.Ops, last)
				}
				j += int(count) - 1
				continue
			}
			op := Op{Kind: config.TraceOp(head & 7)}
			var gap, instrs uint64
			switch code := uint64(head >> 3); {
			case code < 30:
				gap, instrs = code/2, code/2+code%2
			case code == 30:
				if gap, err = d.uvarint(); err != nil {
					return nil, err
				}
				instrs = gap
			default:
				if gap, err = d.uvarint(); err != nil {
					return nil, err
				}
				if instrs, err = d.uvarint(); err != nil {
					return nil, err
				}
			}
			if gap > 1<<62 || instrs > 1<<62 {
				return nil, fmt.Errorf("trace: core %d op %d: gap/instrs out of range", core, j)
			}
			op.Gap, op.Instrs = int64(gap), int64(instrs)
			if op.Kind.HasAddr() {
				delta, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				prev += delta>>1 ^ -(delta & 1)
				op.Addr = prev
			}
			if op.Kind.HasVal() {
				if op.Val, err = d.uvarint(); err != nil {
					return nil, err
				}
			}
			if op.Kind == config.TraceCAS {
				if op.Val2, err = d.uvarint(); err != nil {
					return nil, err
				}
			}
			s.Ops = append(s.Ops, op)
		}
		if d.pos != end {
			return nil, fmt.Errorf("trace: core %d: %d bytes after its records", core, end-d.pos)
		}
		d.buf = data
		t.Streams = append(t.Streams, s)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("trace: %d trailing bytes after streams", len(d.buf)-d.pos)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

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

// opsOf expands a packed stream into the slice the referee works on.
func opsOf(o Ops) []Op {
	out := make([]Op, 0, o.Len())
	c := o.Cursor()
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		out = append(out, op)
	}
	return out
}

// packOps runs ops through an OpsBuilder.
func packOps(ops []Op) (Ops, error) {
	var b OpsBuilder
	for _, op := range ops {
		if err := b.Append(op); err != nil {
			return Ops{}, err
		}
	}
	return b.Finish()
}

// pack converts a referee trace to the packed form, failing the test if
// the builder refuses it.
func (t *refTrace) pack(tb testing.TB) *Trace {
	tb.Helper()
	out := &Trace{Meta: t.Meta, InitMem: t.InitMem}
	for _, s := range t.Streams {
		ops, err := packOps(s.Ops)
		if err != nil {
			tb.Fatalf("core %d: %v", s.Core, err)
		}
		out.Streams = append(out.Streams, Stream{Core: s.Core, Ops: ops})
	}
	return out
}

// unpack converts a packed trace to the referee form.
func unpack(t *Trace) *refTrace {
	out := &refTrace{Meta: t.Meta, InitMem: t.InitMem}
	for _, s := range t.Streams {
		out.Streams = append(out.Streams, refStream{Core: s.Core, Ops: opsOf(s.Ops)})
	}
	return out
}
