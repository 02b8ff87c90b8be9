package trace

import (
	"encoding/binary"
	"os"

	"repro/internal/config"
	"repro/internal/sim"
)

// Binary trace format, version 2. All integers are unsigned varints
// (encoding/binary) unless marked zigzag (signed varint). Layout:
//
//	magic     8 bytes "TSOCCTRC"
//	version   uvarint (1 or 2)
//	protocol  string (uvarint length + bytes)
//	workload  string
//	seed      uvarint
//	geometry  12 uvarints: cores, l1size, l1ways, l2tilesize, l2ways,
//	          l1hitlat, l2accesslat, membase, memspread, writebuffer,
//	          meshrows, maxcycles
//	initmem   uvarint count, then per word:
//	            addr   uvarint delta from the previous address
//	                   (strictly ascending; first word is absolute)
//	            value  uvarint
//	streams   uvarint count, then per stream:
//	            core   uvarint (strictly ascending across streams)
//	            ops    uvarint count, then per op record:
//	              kind    1 byte
//	              gap     uvarint
//	              instrs  uvarint
//	              addr    zigzag delta from the stream's previous
//	                      address (ops with an address only)
//	              val     uvarint (store/rmw/cas only)
//	              val2    uvarint (cas only)
//
// Version 2 adds run-length encoding of repeated operations: an op
// record may be followed by a repeat marker
//
//	rle       1 byte 0xFF, then
//	count     uvarint (>= 1)
//
// meaning "the previous op occurs count more times" — same kind,
// address, values, gap and instruction delta. Spin-heavy streams (lock
// probes re-polling one address on a fixed cadence) collapse from one
// record per probe to one record per probe *burst*. The marker byte
// cannot collide with a kind byte (kinds are < config.NumTraceOps), so
// version-1 payloads — which never contain markers — decode unchanged
// through the same loop; the encoder always writes version 2.
//
// The encoding is canonical: runs are maximal and varints minimal, so
// Encode is a pure function of the trace and encode → decode →
// re-encode is byte-identical (FuzzTraceRoundTrip enforces it, over
// both versions), which is what lets the conformance gates diff trace
// files across engine modes and core models directly.
//
// The in-memory form of a stream is this wire form (see Ops): the op
// records above are exactly the bytes a Stream holds. So
//
//   - Encode writes the header and copies each stream's records behind
//     it; it never looks inside them.
//   - Decode parses the header, then checks each stream's records in one
//     scan (scanOps) — framing, the per-op rule (checkOp), halt
//     placement, the op budget — and keeps the sub-slice of data it
//     just checked. Nothing is expanded, so a repeat marker declaring
//     millions of ops costs no memory. Decode therefore retains data:
//     the caller must not modify it afterwards. Records that are valid
//     but not canonical (version-1 runs, split runs, padded varints) are
//     rebuilt through an OpsBuilder instead of kept.
//   - Who validates what: per-op fields and halt placement are checked
//     once, where the op enters (OpsBuilder.Append / Finish for values,
//     scanOps for bytes) and cannot be broken afterwards, so
//     Trace.Validate only checks what spans streams — header cores,
//     init-memory order and alignment, stream order and core range,
//     no empty stream — in O(streams + init words).
const (
	formatVersion   = 2
	formatVersionV1 = 1 // still decoded; see encodeV1 in codec_test.go
	magicLen        = 8
	rleMarker       = 0xFF

	// maxDecodeOps floors the decoder's total-op budget (see
	// decodeOpBudget) — far above any trace the simulator produces
	// today.
	maxDecodeOps = 4 << 20
)

// decodeOpBudget is the total op count, across all streams, a decoder
// will accept from an n-byte file: one shared budget (a corrupt file
// cannot multiply a per-stream allowance by a fabricated stream count)
// that scales with input size, so legitimately large traces keep
// decoding — a real capture spends several bytes per op outside its
// RLE runs. Decoding allocates nothing per op, so what the budget
// bounds is time: what a few corrupt bytes can cost whoever walks the
// stream afterwards. Encode enforces the same formula
// against its own output, so the codec never produces a file it would
// refuse to read back.
func decodeOpBudget(n int) int {
	if b := 4096 * n; b > maxDecodeOps {
		return b
	}
	return maxDecodeOps
}

var magic = [magicLen]byte{'T', 'S', 'O', 'C', 'C', 'T', 'R', 'C'}

// Encode serializes a validated trace to its canonical binary form: the
// header, then each stream's records copied as they are.
func Encode(t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	sys := t.Meta.Sys
	for _, v := range geometryFields(sys) {
		if v < 0 {
			return nil, formatErr("geometry", "negative geometry field in header")
		}
	}
	// Upper bound on the encoded size, so the buffer is allocated once.
	size := 256 + len(t.Meta.Protocol) + len(t.Meta.Workload) +
		2*binary.MaxVarintLen64*(len(t.InitMem)+len(t.Streams))
	for _, s := range t.Streams {
		size += s.Ops.Size()
	}
	e := encoder{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, magic[:]...)
	e.uvarint(formatVersion)
	e.str(t.Meta.Protocol)
	e.str(t.Meta.Workload)
	e.uvarint(t.Meta.Seed)
	for _, v := range geometryFields(sys) {
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
		e.uvarint(uint64(s.Ops.Len()))
		e.buf = append(e.buf, s.Ops.rec...)
	}
	// Self-check against the decoder's budget (see decodeOpBudget): only
	// a degenerate trace — millions of ops collapsing into a few runs —
	// can trip this, and refusing here beats writing a file no decoder
	// will accept.
	if total := t.Ops(); total > decodeOpBudget(len(e.buf)) {
		return nil, formatErr("ops", "%d total ops exceeds the decode budget for a %d-byte encoding",
			total, len(e.buf))
	}
	return e.buf, nil
}

// geometryFields lists the header's machine-geometry values in encoding
// order.
func geometryFields(sys config.System) [12]int64 {
	return [12]int64{
		int64(sys.Cores), int64(sys.L1Size), int64(sys.L1Ways),
		int64(sys.L2TileSize), int64(sys.L2Ways),
		int64(sys.L1HitLat), int64(sys.L2AccessLat),
		int64(sys.MemBase), int64(sys.MemSpread),
		int64(sys.WriteBuffer), int64(sys.MeshRows), int64(sys.MaxCycles),
	}
}

type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decode parses a binary trace. It never panics on malformed input:
// truncated data, corrupt headers, bad varints and structurally invalid
// traces all return a *FormatError. The returned trace's streams alias
// data (see the format notes above): data must not be modified while
// the trace is in use.
func Decode(data []byte) (*Trace, error) {
	d := decoder{buf: data}
	if len(data) < magicLen || string(data[:magicLen]) != string(magic[:]) {
		return nil, formatErr("magic", "bad magic (not a trace file)")
	}
	d.pos = magicLen
	version, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if version != formatVersion && version != formatVersionV1 {
		return nil, formatErr("version", "unsupported format version %d (have %d)", version, formatVersion)
	}
	t := &Trace{}
	if t.Meta.Protocol, err = d.str("protocol"); err != nil {
		return nil, err
	}
	if t.Meta.Workload, err = d.str("workload"); err != nil {
		return nil, err
	}
	if t.Meta.Seed, err = d.uvarint("seed"); err != nil {
		return nil, err
	}
	var geo [12]int64
	for i := range geo {
		v, err := d.uvarint("geometry")
		if err != nil {
			return nil, err
		}
		if v > 1<<62 {
			return nil, formatErr("geometry", "geometry field %d out of range", i)
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
	nmem, err := d.count("initmem")
	if err != nil {
		return nil, err
	}
	addr := uint64(0)
	for i := 0; i < nmem; i++ {
		delta, err := d.uvarint("initmem")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			addr = delta
		} else {
			next := addr + delta
			if next < addr {
				return nil, formatErr("initmem", "init memory address overflow")
			}
			addr = next
		}
		val, err := d.uvarint("initmem")
		if err != nil {
			return nil, err
		}
		t.InitMem = append(t.InitMem, MemWord{Addr: addr, Val: val})
	}
	nstreams, err := d.count("streams")
	if err != nil {
		return nil, err
	}
	opBudget := decodeOpBudget(len(data))
	for i := 0; i < nstreams; i++ {
		core, err := d.uvarint("core")
		if err != nil {
			return nil, err
		}
		if core > 1<<20 {
			return nil, formatErr("core", "stream core id %d out of range", core)
		}
		// The op count cannot be bounded by the remaining input: run-length
		// markers stand for arbitrarily many ops by design. The budget —
		// shared across every stream in the file — is the bound instead.
		nops, err := d.uvarint("ops")
		if err != nil {
			return nil, err
		}
		if nops > uint64(opBudget) {
			return nil, formatErr("ops", "core %d: ops count %d exceeds remaining decoder budget %d",
				core, nops, opBudget)
		}
		opBudget -= int(nops)
		ops, err := d.scanOps(int(core), int(nops), version == formatVersionV1)
		if err != nil {
			return nil, err
		}
		t.Streams = append(t.Streams, Stream{Core: int(core), Ops: ops})
	}
	if d.pos != len(d.buf) {
		return nil, formatErr("streams", "%d trailing bytes after streams", len(d.buf)-d.pos)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// scanOps checks the nops op records at d.pos and returns them as an
// Ops without expanding anything: framing, checkOp on every record (a
// repeat marker re-states an op already checked), one halt and only at
// the end. Canonical records — what Encode writes — are kept as the
// sub-slice just scanned; valid records in any other spelling (a
// version-1 payload with adjacent identical ops, a run split across
// records or markers, a padded varint) are rebuilt through an
// OpsBuilder, so an Ops holds canonical bytes however it was made.
func (d *decoder) scanOps(core, nops int, v1 bool) (Ops, error) {
	if nops == 0 {
		return Ops{}, formatErr("ops", "core %d stream is empty", core)
	}
	start := d.pos
	d.padded = false
	var (
		last        Op
		prev, span  uint64 // running address; one past the highest seen
		canonical   = true
		afterMarker bool
	)
	for j := 0; j < nops; {
		if d.pos >= len(d.buf) {
			return Ops{}, formatErr("ops", "truncated at core %d op %d", core, j)
		}
		if !v1 && d.buf[d.pos] == rleMarker {
			d.pos++
			if j == 0 {
				return Ops{}, formatErr("rle", "core %d: repeat marker before any op", core)
			}
			count, err := d.uvarint("rle")
			if err != nil {
				return Ops{}, err
			}
			if count < 1 || count > uint64(nops-j) {
				return Ops{}, formatErr("rle", "core %d op %d: repeat count %d exceeds declared ops", core, j, count)
			}
			canonical = canonical && !afterMarker
			afterMarker = true
			j += int(count)
			continue
		}
		op, err := d.record(&prev)
		if err == nil {
			err = checkOp(op, j)
		}
		if err != nil {
			return Ops{}, inCore(core, err)
		}
		if op.Kind.HasAddr() && op.Addr >= span {
			span = op.Addr + 8
		}
		if op.Kind == config.TraceHalt && j != nops-1 {
			return Ops{}, formatErr("halt", "core %d has halt at op %d before end of stream", core, j)
		}
		if j > 0 && sameWire(last, op) {
			canonical = false // a run the encoder would have folded
		}
		last, afterMarker = op, false
		j++
	}
	if last.Kind != config.TraceHalt {
		return Ops{}, formatErr("halt", "core %d stream does not end in halt", core)
	}
	if canonical && !d.padded {
		return Ops{rec: d.buf[start:d.pos:d.pos], n: nops, span: span}, nil
	}
	var b OpsBuilder
	b.Grow(d.pos - start)
	c := Cursor{rec: d.buf[start:d.pos]}
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		if err := b.Append(op); err != nil {
			return Ops{}, inCore(core, err) // unreachable: every op was checked above
		}
	}
	return b.Finish()
}

// record reads one op record at d.pos; *prev is the stream's running
// address. A kind past the known ones is returned as is, with no fields
// read, for checkOp to reject.
func (d *decoder) record(prev *uint64) (Op, error) {
	op := Op{Kind: config.TraceOp(d.buf[d.pos])}
	d.pos++
	if op.Kind >= config.NumTraceOps {
		return op, nil
	}
	gap, err := d.uvarint("gap")
	if err != nil {
		return op, err
	}
	instrs, err := d.uvarint("instrs")
	if err != nil {
		return op, err
	}
	// A value past 2^62 converts to one checkOp rejects: above the bound
	// or negative.
	op.Gap, op.Instrs = int64(gap), int64(instrs)
	if op.Kind.HasAddr() {
		delta, err := d.uvarint("addr")
		if err != nil {
			return op, err
		}
		*prev += uint64(unzigzag(delta))
		op.Addr = *prev
	}
	if op.Kind.HasVal() {
		if op.Val, err = d.uvarint("val"); err != nil {
			return op, err
		}
	}
	if op.Kind == config.TraceCAS {
		if op.Val2, err = d.uvarint("val2"); err != nil {
			return op, err
		}
	}
	return op, nil
}

type decoder struct {
	buf []byte
	pos int
	// padded records that some varint read since it was last cleared was
	// longer than its value needs — valid, but not what Encode writes.
	padded bool
}

func (d *decoder) uvarint(what string) (uint64, error) {
	// Most fields of a real stream are one byte; the rest is out of line
	// so that this much inlines into the scan.
	if p := d.pos; p < len(d.buf) && d.buf[p] < 0x80 {
		d.pos = p + 1
		return uint64(d.buf[p]), nil
	}
	return d.uvarintLong(what)
}

func (d *decoder) uvarintLong(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, formatErr(what, "bad or truncated varint (%s) at offset %d", what, d.pos)
	}
	d.pos += n
	if d.buf[d.pos-1] == 0 {
		d.padded = true
	}
	return v, nil
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return "", formatErr(what, "string (%s) length %d exceeds remaining input", what, n)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// count reads an element count and bounds it against the remaining
// input (every element costs at least one byte), so corrupt counts
// cannot drive huge allocations.
func (d *decoder) count(what string) (int, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return 0, formatErr(what, "%s count %d exceeds remaining input", what, n)
	}
	return int(n), nil
}

// WriteFile encodes t and writes it to path.
func WriteFile(path string, t *Trace) error {
	data, err := Encode(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile reads and decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
