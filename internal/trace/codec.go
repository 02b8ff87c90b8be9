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
//	version   uvarint (2; any other is refused)
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
// An op record may be followed by a repeat marker (run-length encoding
// of repeated operations, what version 2 added to version 1)
//
//	rle       1 byte 0xFF, then
//	count     uvarint (>= 1)
//
// meaning "the previous op occurs count more times" — same kind,
// address, values, gap and instruction delta. Spin-heavy streams (lock
// probes re-polling one address on a fixed cadence) collapse from one
// record per probe to one record per probe *burst*. The marker byte
// cannot collide with a kind byte (kinds are < config.NumTraceOps).
// Version 1, the same records without markers, is no longer read: the
// encoder has written only version 2 since markers were added.
//
// The encoding is canonical: runs are maximal and varints minimal, so
// Encode is a pure function of the trace and encode → decode →
// re-encode is byte-identical (FuzzTraceRoundTrip enforces it), which
// is what lets the conformance gates diff trace files across engine
// modes and core models directly.
//
// The in-memory form of a stream is this wire form (see Ops): the op
// records above are exactly the bytes a Stream holds. So
//
//   - Encode writes the header and copies each stream's records behind
//     it; it never looks inside them.
//   - Decode parses the header, then checks each stream's records in one
//     scan (scanOps) — framing, the per-op rule (checkOp's, on each
//     record's fields as read), halt placement, the op budget — and
//     keeps the sub-slice of data it
//     just checked. Nothing is expanded, so a repeat marker declaring
//     millions of ops costs no memory. Decode therefore retains data:
//     the caller must not modify it afterwards. Records that are valid
//     but not canonical (split runs, padded varints) are
//     rebuilt through an OpsBuilder instead of kept.
//   - Who validates what: per-op fields and halt placement are checked
//     once, where the op enters (OpsBuilder.Append / Finish for values,
//     scanOps for bytes) and cannot be broken afterwards, so
//     Trace.Validate only checks what spans streams — header cores,
//     init-memory order and alignment, stream order and core range,
//     no empty stream — in O(streams + init words).
const (
	formatVersion = 2
	magicLen      = 8
	rleMarker     = 0xFF

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
	if version != formatVersion {
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
		ops, err := d.scanOps(int(core), int(nops))
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
// Ops without expanding anything: framing, the per-op rule (checkOp's,
// applied here to the fields as they are read), one halt and only at
// the end; a repeat marker re-states an op already checked. Canonical
// records — what Encode writes — are kept as the sub-slice just
// scanned; valid records in any other spelling (a run split across
// records or markers, a padded varint) are rebuilt through an
// OpsBuilder, so an Ops holds canonical bytes however it was made.
// A record's fields are read into locals, no Op is built; a bad kind is
// refused before any field is read, a bad varint before any value is
// checked, as when records were decoded into Ops.
func (d *decoder) scanOps(core, nops int) (Ops, error) {
	if nops == 0 {
		return Ops{}, formatErr("ops", "core %d stream is empty", core)
	}
	pos, start := d.pos, d.pos
	d.padded = false
	var (
		prev        uint64 // running address
		canonical   = true
		afterMarker bool
		// The last record's fields. A record equal in all of them, with
		// a zero address delta, is a run the encoder would have folded.
		lastKind                               = config.NumTraceOps // none yet
		lastGap, lastInstrs, lastVal, lastVal2 uint64
	)
	for j := 0; j < nops; {
		if pos >= len(d.buf) {
			return Ops{}, formatErr("ops", "truncated at core %d op %d", core, j)
		}
		kind := config.TraceOp(d.buf[pos])
		pos++
		if kind == rleMarker {
			if j == 0 {
				return Ops{}, formatErr("rle", "core %d: repeat marker before any op", core)
			}
			count, next := d.varint(pos)
			if next < 0 {
				return Ops{}, varintErr("rle", pos)
			}
			if count < 1 || count > uint64(nops-j) {
				return Ops{}, formatErr("rle", "core %d op %d: repeat count %d exceeds declared ops", core, j, count)
			}
			canonical = canonical && !afterMarker
			afterMarker = true
			pos = next
			j += int(count)
			continue
		}
		if kind >= config.NumTraceOps {
			return Ops{}, inCore(core, formatErr("kind", "op %d has bad kind %d", j, kind))
		}
		gap, next := d.varint(pos)
		if next < 0 {
			return Ops{}, inCore(core, varintErr("gap", pos))
		}
		pos = next
		instrs, next := d.varint(pos)
		if next < 0 {
			return Ops{}, inCore(core, varintErr("instrs", pos))
		}
		pos = next
		var delta, val, val2 uint64
		if kind.HasAddr() {
			if delta, next = d.varint(pos); next < 0 {
				return Ops{}, inCore(core, varintErr("addr", pos))
			}
			pos = next
			prev += uint64(unzigzag(delta))
		}
		if kind.HasVal() {
			if val, next = d.varint(pos); next < 0 {
				return Ops{}, inCore(core, varintErr("val", pos))
			}
			pos = next
		}
		if kind == config.TraceCAS {
			if val2, next = d.varint(pos); next < 0 {
				return Ops{}, inCore(core, varintErr("val2", pos))
			}
			pos = next
		}
		if gap > maxDelta || instrs > maxDelta || kind.HasAddr() && prev%8 != 0 { // checkOp's rule; checkOp words it
			return Ops{}, inCore(core, checkOp(Op{Kind: kind, Addr: prev, Gap: int64(gap), Instrs: int64(instrs)}, j))
		}
		if kind == config.TraceHalt && j != nops-1 {
			return Ops{}, formatErr("halt", "core %d has halt at op %d before end of stream", core, j)
		}
		if kind == lastKind && gap == lastGap && instrs == lastInstrs && delta == 0 && val == lastVal && val2 == lastVal2 {
			canonical = false
		}
		lastKind, lastGap, lastInstrs, lastVal, lastVal2 = kind, gap, instrs, val, val2
		afterMarker = false
		j++
	}
	d.pos = pos
	if lastKind != config.TraceHalt {
		return Ops{}, formatErr("halt", "core %d stream does not end in halt", core)
	}
	rec := d.buf[start:pos:pos]
	if canonical && !d.padded {
		return Ops{rec: rec, n: nops}, nil
	}
	var b OpsBuilder
	b.Grow(len(rec))
	c := Cursor{rec: rec}
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		if err := b.Append(op); err != nil {
			return Ops{}, inCore(core, err) // unreachable: every op was checked above
		}
	}
	return b.Finish()
}

type decoder struct {
	buf []byte
	pos int
	// padded records that some varint read since it was last cleared was
	// longer than its value needs — valid, but not what Encode writes.
	padded bool
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, next := d.varint(d.pos)
	if next < 0 {
		return 0, varintErr(what, d.pos)
	}
	d.pos = next
	return v, nil
}

func varintErr(what string, pos int) error {
	return formatErr(what, "bad or truncated varint (%s) at offset %d", what, pos)
}

// varint is the decoder's one varint reader, the checked twin of
// uvarintAt: it returns the varint at d.buf[pos:] with the offset just
// past it, or a negative offset if the bytes there are truncated or
// encode more than 64 bits. A varint longer than its value needs is
// valid but sets d.padded.
func (d *decoder) varint(pos int) (uint64, int) {
	b := d.buf
	if pos < len(b) && b[pos] < 0x80 { // most fields of a real stream
		return uint64(b[pos]), pos + 1
	}
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, -1
	}
	if b[pos+n-1] == 0 {
		d.padded = true
	}
	return v, pos + n
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
