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
// them again. It is kept, in tests only, as the independent statement of
// what the format means: the packed Decode must accept exactly what
// refDecode accepts, a Cursor must yield exactly refDecode's ops, and
// Encode must write exactly refEncode's bytes (FuzzTraceRoundTrip).

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

// refEncode is the pre-packing Encode. version 1 writes the legacy
// format: the same bytes without run-length markers.
func refEncode(t *refTrace, version uint64) ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	for _, v := range geometryFields(t.Meta.Sys) {
		if v < 0 {
			return nil, fmt.Errorf("trace: negative geometry field in header")
		}
	}
	data := rawEncode(t, version)
	if total := t.ops(); total > decodeOpBudget(len(data)) {
		return nil, fmt.Errorf("trace: %d total ops exceeds the decode budget", total)
	}
	return data, nil
}

// rawEncode is refEncode's serializer without its checks, so tests can
// put a malformed trace on the wire and see who refuses it.
func rawEncode(t *refTrace, version uint64) []byte {
	e := encoder{}
	e.buf = append(e.buf, magic[:]...)
	e.uvarint(version)
	e.str(t.Meta.Protocol)
	e.str(t.Meta.Workload)
	e.uvarint(t.Meta.Seed)
	for _, v := range geometryFields(t.Meta.Sys) {
		e.uvarint(uint64(v))
	}
	e.uvarint(uint64(len(t.InitMem)))
	prevAddr := uint64(0)
	for i, w := range t.InitMem {
		if i == 0 {
			e.uvarint(w.Addr)
		} else {
			e.uvarint(w.Addr - prevAddr)
		}
		prevAddr = w.Addr
		e.uvarint(w.Val)
	}
	e.uvarint(uint64(len(t.Streams)))
	for _, s := range t.Streams {
		e.uvarint(uint64(s.Core))
		e.uvarint(uint64(len(s.Ops)))
		prev := uint64(0)
		for i := 0; i < len(s.Ops); {
			op := s.Ops[i]
			e.record(op, &prev)
			run := 0
			for version >= 2 && i+1+run < len(s.Ops) && sameWire(s.Ops[i+1+run], op) {
				run++
			}
			if run > 0 {
				e.marker(run)
			}
			i += 1 + run
		}
	}
	return e.buf
}

// record writes one op record; *prev is the stream's running address.
func (e *encoder) record(op Op, prev *uint64) {
	e.buf = append(e.buf, byte(op.Kind))
	e.uvarint(uint64(op.Gap))
	e.uvarint(uint64(op.Instrs))
	if op.Kind.HasAddr() {
		e.uvarint(zigzag(int64(op.Addr - *prev)))
		*prev = op.Addr
	}
	if op.Kind.HasVal() {
		e.uvarint(op.Val)
	}
	if op.Kind == config.TraceCAS {
		e.uvarint(op.Val2)
	}
}

// marker writes a repeat marker for n more occurrences.
func (e *encoder) marker(n int) {
	e.buf = append(e.buf, rleMarker)
	e.uvarint(uint64(n))
}

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

// refDecode is the pre-packing Decode: it expands every repeat marker
// into Op values (which is why it must not be handed an RLE bomb) and
// validates the result afterwards.
func refDecode(data []byte) (*refTrace, error) {
	d := refReader{buf: data}
	if len(data) < magicLen || string(data[:magicLen]) != string(magic[:]) {
		return nil, fmt.Errorf("trace: bad magic")
	}
	d.pos = magicLen
	version, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if version != formatVersion && version != formatVersionV1 {
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
	opBudget := decodeOpBudget(len(data))
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
			if version >= 2 && d.buf[d.pos] == rleMarker {
				d.pos++
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
			op := Op{Kind: config.TraceOp(d.buf[d.pos])}
			d.pos++
			if op.Kind >= config.NumTraceOps {
				return nil, fmt.Errorf("trace: core %d op %d: bad kind %d", core, j, op.Kind)
			}
			gap, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			instrs, err := d.uvarint()
			if err != nil {
				return nil, err
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
				prev += uint64(unzigzag(delta))
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
