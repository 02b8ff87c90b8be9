package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/config"
)

// sampleRef builds a small trace exercising every op kind, both value
// widths and the address-delta paths (forward and backward), as op
// values; pack turns it into a Trace.
func sampleRef() *refTrace {
	return &refTrace{
		Meta: Meta{
			Protocol: "TSO-CC-4-12-3",
			Workload: "sample",
			Seed:     42,
			Sys:      normalizeSys(config.Small(2)),
		},
		InitMem: []MemWord{{Addr: 0x1000, Val: 7}, {Addr: 0x2000, Val: 1 << 60}},
		Streams: []refStream{
			{Core: 0, Ops: []Op{
				{Kind: config.TraceLoad, Addr: 0x1000, Gap: 1, Instrs: 3},
				{Kind: config.TraceStore, Addr: 0x2000, Val: 99, Gap: 4, Instrs: 5},
				{Kind: config.TraceRMWAdd, Addr: 0x1000, Val: 1, Gap: 2, Instrs: 2},
				{Kind: config.TraceCAS, Addr: 0x1008, Val: 0, Val2: 1, Gap: 0, Instrs: 1},
				{Kind: config.TraceFence, Gap: 6, Instrs: 7},
				{Kind: config.TraceHalt, Gap: 12, Instrs: 13},
			}},
			{Core: 1, Ops: []Op{
				{Kind: config.TraceRMWXchg, Addr: 0x2000, Val: 5, Gap: 9, Instrs: 9},
				{Kind: config.TraceLoad, Addr: 0x1000, Gap: 0, Instrs: 1}, // backward delta
				{Kind: config.TraceHalt, Gap: 1, Instrs: 1},
			}},
		},
	}
}

// spinRef builds a lock-probe-shaped stream: long bursts of identical
// same-address/same-gap loads and CAS probes — the shape the RLE
// exists for.
func spinRef(probes int) *refTrace {
	var ops []Op
	for round := 0; round < 4; round++ {
		ops = append(ops, Op{Kind: config.TraceCAS, Addr: 0x1000, Val: 0, Val2: 1, Gap: 3, Instrs: 2})
		for i := 0; i < probes; i++ {
			ops = append(ops, Op{Kind: config.TraceLoad, Addr: 0x1000, Gap: 17, Instrs: 4})
		}
		ops = append(ops, Op{Kind: config.TraceStore, Addr: 0x2000, Val: uint64(round), Gap: 1, Instrs: 2})
	}
	ops = append(ops, Op{Kind: config.TraceHalt, Gap: 1, Instrs: 1})
	return &refTrace{
		Meta: Meta{Protocol: "TSO-CC-4-12-3", Workload: "spin",
			Seed: 7, Sys: normalizeSys(config.Small(1))},
		Streams: []refStream{{Core: 0, Ops: ops}},
	}
}

// TestCodecRefusesOldVersions: versions 1 (before run-length markers),
// 2 (a kind byte and gap and instrs varints per record) and 3 (no
// per-stream byte length) are no longer read; a file declaring any of
// them is refused at the version field.
func TestCodecRefusesOldVersions(t *testing.T) {
	for _, v := range []byte{1, 2, 3} {
		data, err := Encode(sampleRef().pack(t))
		if err != nil {
			t.Fatal(err)
		}
		data[magicLen] = v
		var fe *FormatError
		if _, err := Decode(data); !errors.As(err, &fe) || fe.Field != "version" ||
			fe.Msg != fmt.Sprintf("unsupported format version %d (have 4)", v) {
			t.Errorf("decode of a version-%d file: got %v, want the version FormatError", v, err)
		}
	}
	// Whole version-2 and version-3 files too, not only their version
	// bytes.
	for v, data := range map[int][]byte{2: EncodeV2(sampleRef().pack(t)), 3: v3.file(sampleRef())} {
		var fe *FormatError
		if _, err := Decode(data); !errors.As(err, &fe) || fe.Field != "version" {
			t.Errorf("decode of a version-%d file: got %v, want the version FormatError", v, err)
		}
	}
}

// TestCodecRLECompression checks the repeat markers compact the spin shape:
// the run-length encoding must shrink a probe-heavy stream by an order
// of magnitude relative to one record per op, and the bytes-per-op
// headline must drop below one.
func TestCodecRLECompression(t *testing.T) {
	ref := spinRef(200)
	tr := ref.pack(t)
	var flat refWriter // one record per op, no repeat markers
	prev := uint64(0)
	for _, op := range ref.Streams[0].Ops {
		flat.record(op, &prev)
	}
	enc, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(enc); err != nil || !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip broken: %v", err)
	}
	if packed := tr.Streams[0].Ops.Size(); packed*10 > len(flat.buf) {
		t.Fatalf("RLE shrank the stream %d -> %d bytes; want >= 10x on the spin shape", len(flat.buf), packed)
	}
	perOp := float64(len(enc)) / float64(tr.Ops())
	if perOp >= 1 {
		t.Fatalf("file bytes/op = %.2f on the spin shape, want < 1", perOp)
	}
	t.Logf("spin stream: %d bytes as records (%.2f B/op), file %d bytes (%.2f B/op)",
		len(flat.buf), float64(len(flat.buf))/float64(tr.Ops()), len(enc), perOp)
}

// TestCodecRLEIgnoresUnencodedFields pins the run comparison to the
// wire format: ops differing only in fields their kind never encodes
// (a stray Addr on a fence) must still form a run, keeping
// encode ∘ decode ∘ encode byte-identical, and a Cursor hands them back
// with those fields zero.
func TestCodecRLEIgnoresUnencodedFields(t *testing.T) {
	tr := (&refTrace{
		Meta: Meta{Protocol: "MESI", Workload: "junkfields",
			Seed: 1, Sys: normalizeSys(config.Small(1))},
		Streams: []refStream{{Core: 0, Ops: []Op{
			{Kind: config.TraceFence, Addr: 0x1000, Gap: 2, Instrs: 1},
			{Kind: config.TraceFence, Addr: 0x2000, Gap: 2, Instrs: 1},
			{Kind: config.TraceLoad, Addr: 0x1000, Val: 99, Gap: 3, Instrs: 1},
			{Kind: config.TraceLoad, Addr: 0x1000, Val: 7, Gap: 3, Instrs: 1},
			{Kind: config.TraceHalt, Gap: 1, Instrs: 1},
		}}},
	}).pack(t)
	if got, want := tr.Streams[0].Ops.Size(), 3+2+5+2+1; got != want {
		t.Fatalf("packed stream is %d bytes, want %d (two runs of two)", got, want)
	}
	want := []Op{
		{Kind: config.TraceFence, Gap: 2, Instrs: 1},
		{Kind: config.TraceFence, Gap: 2, Instrs: 1},
		{Kind: config.TraceLoad, Addr: 0x1000, Gap: 3, Instrs: 1},
		{Kind: config.TraceLoad, Addr: 0x1000, Gap: 3, Instrs: 1},
		{Kind: config.TraceHalt, Gap: 1, Instrs: 1},
	}
	if got := opsOf(tr.Streams[0].Ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor yielded %+v, want %+v", got, want)
	}
	enc, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encode not byte-identical (%d vs %d bytes): unencoded fields split a run", len(enc), len(enc2))
	}
}

// bombFile is a one-core, one-stream file whose stream declares nops
// ops and holds the records given, joined.
func bombFile(nops uint64, records ...[]byte) []byte {
	var w refWriter
	w.header(formatVersion, &refTrace{Meta: Meta{Protocol: "MESI", Workload: "evil",
		Seed: 1, Sys: normalizeSys(config.Small(1))}})
	w.uvarint(1) // stream count
	w.uvarint(0) // core 0
	w.uvarint(nops)
	rec := bytes.Join(records, nil)
	w.uvarint(uint64(len(rec)))
	w.buf = append(w.buf, rec...)
	return w.buf
}

// TestCodecDecodeOpBudget pins the budget: a crafted file declaring
// more total ops than the decoder budget is rejected at the count, with
// the typed error naming it.
func TestCodecDecodeOpBudget(t *testing.T) {
	data := bombFile(maxDecodeOps+1, []byte{0}) // one op would follow...
	_, err := Decode(data)
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Field != "ops" {
		t.Fatalf("decode of an op count past the budget: got %v, want a FormatError on ops", err)
	}
}

// allocated reports the bytes f allocates (all goroutines; the tests of
// this package do not run in parallel). TotalAlloc also counts what the
// runtime itself allocates in the window (seen on a loaded host: a few
// KB, once in ~10 runs), so the smallest of three measurements is
// taken: f's own allocation is in every one of them.
func allocated(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCodecDecodeAllocation pins what packed streams buy the decoder:
// it allocates in proportion to its input, never to the op count the
// input declares. The budget admits maxDecodeOps ops from any file, so
// a ~50-byte file can declare 4 Mi of them through one repeat marker;
// the materializing decoder turned that into 4 Mi x 48 B = 201 MB.
// Both spellings of the bomb (one maximal run, kept as is; a split run,
// rebuilt through the builder) and a real 19 MB Zipf encoding must
// decode within 2 x len(data) plus a constant for the Trace itself.
func TestCodecDecodeAllocation(t *testing.T) {
	const slack = 4 << 10
	load := []byte{2<<3 | byte(config.TraceLoad), 0x10} // gap 1, instrs 1, addr +8
	halt := []byte{2<<3 | byte(config.TraceHalt)}
	marker := func(n int) []byte {
		var w refWriter
		w.marker(n)
		return w.buf
	}

	zipf, err := Encode(Zipf(SynthParams{Cores: 8, OpsPerCore: 300000, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		ops  int
	}{
		{"bomb, one run", bombFile(maxDecodeOps, load, marker(maxDecodeOps-2), halt), maxDecodeOps},
		{"bomb, split run", bombFile(maxDecodeOps, load, marker(maxDecodeOps/2),
			marker(maxDecodeOps-2-maxDecodeOps/2), halt), maxDecodeOps},
		{"zipf 8x300k", zipf, 8 * 300001},
	}
	for _, tc := range cases {
		var tr *Trace
		got := allocated(func() {
			if tr, err = Decode(tc.data); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if tr.Ops() != tc.ops {
			t.Fatalf("%s: decoded %d ops, want %d", tc.name, tr.Ops(), tc.ops)
		}
		if limit := uint64(2*len(tc.data) + slack); got > limit {
			t.Errorf("%s: Decode of %d bytes allocated %d, want <= %d", tc.name, len(tc.data), got, limit)
		}
		t.Logf("%s: %d bytes in, %d ops, %d bytes allocated", tc.name, len(tc.data), tc.ops, got)
	}

	// The bomb is a real stream: a cursor walks all of it in place.
	tr, err := Decode(cases[1].data)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Streams[0].Ops.Size() != len(load)+len(marker(maxDecodeOps-2))+len(halt) {
		t.Fatalf("split run was not folded: stream holds %d bytes", tr.Streams[0].Ops.Size())
	}
	n, loads := 0, 0
	c := tr.Streams[0].Ops.Cursor()
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		n++
		if op.Kind == config.TraceLoad && op.Addr == 8 {
			loads++
		}
	}
	if n != maxDecodeOps || loads != maxDecodeOps-1 {
		t.Fatalf("cursor walked %d ops (%d loads), want %d (%d)", n, loads, maxDecodeOps, maxDecodeOps-1)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ref := sampleRef()
	orig := ref.pack(t)
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("decode mismatch:\n orig: %+v\n got:  %+v", orig, got)
	}
	if !reflect.DeepEqual(ref, unpack(got)) {
		t.Fatalf("cursors do not yield the ops that went in:\n in:  %+v\n out: %+v", ref, unpack(got))
	}
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(data), len(again))
	}
}

// TestCodecTruncation feeds every strict prefix of a valid encoding to
// the decoder: all must error, none may panic.
func TestCodecTruncation(t *testing.T) {
	data, err := Encode(sampleRef().pack(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte prefix of a %d-byte trace", n, len(data))
		}
	}
}

func TestCodecCorruption(t *testing.T) {
	valid, err := Encode(sampleRef().pack(t))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		var fe *FormatError
		if _, err := Decode(mutate(b)); !errors.As(err, &fe) {
			t.Errorf("%s: decode of corrupt input returned %v, want a FormatError", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad version", func(b []byte) []byte { b[magicLen] = 0x7F; return b })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xAA) })
	corrupt("bad head byte", func(b []byte) []byte {
		// Overwrite the final stream's last byte (the halt's head) with
		// a repeat marker carrying stray high bits.
		return append(b[:len(b)-1], 0xFF)
	})
	// No byte flip anywhere in the file may cause a panic, and whatever
	// the decoder still accepts the referee must accept too, as the same
	// ops.
	for i := range valid {
		b := append([]byte(nil), valid...)
		b[i] ^= 0xFF
		checkAgainstReferee(t, b)
	}
}

// TestValidateRejects has one row per rejection the pre-packing
// Trace.Validate performed (refTrace.validate, which every row must
// still trip), and pins where each is made now that a stream cannot be
// malformed after construction: the stage that refuses the trace when it
// is built from op values, and the field the typed error names — the
// same field Decode names when it meets the same trace as bytes, but for
// a bad kind: on the wire, kind 7 is a head byte with low bits 7, a
// repeat marker with stray high bits, which Decode refuses as "rle".
func TestValidateRejects(t *testing.T) {
	halt := Op{Kind: config.TraceHalt, Gap: 1, Instrs: 1}
	cases := []struct {
		name   string
		mutate func(t *refTrace)
		stage  string // OpsBuilder.Append, OpsBuilder.Finish or Trace.Validate
		field  string
	}{
		{"header cores not positive", func(t *refTrace) {
			t.Meta.Sys.Cores = 0
		}, "Validate", "cores"},
		{"header cores above the maximum", func(t *refTrace) {
			t.Meta.Sys.Cores = config.MaxCores + 1
		}, "Validate", "cores"},
		{"init word unaligned", func(t *refTrace) {
			t.InitMem[0].Addr = 0x1004
		}, "Validate", "initmem"},
		{"init memory not ascending", func(t *refTrace) {
			t.InitMem[0], t.InitMem[1] = t.InitMem[1], t.InitMem[0]
		}, "Validate", "initmem"},
		{"init memory repeats an address", func(t *refTrace) {
			t.InitMem[1].Addr = t.InitMem[0].Addr
		}, "Validate", "initmem"},
		{"core out of range", func(t *refTrace) {
			t.Streams[1].Core = t.Meta.Sys.Cores
		}, "Validate", "core"},
		{"streams not ascending", func(t *refTrace) {
			t.Streams[0].Core, t.Streams[1].Core = 1, 0
		}, "Validate", "core"},
		{"streams repeat a core", func(t *refTrace) {
			t.Streams[1].Core = 0
		}, "Validate", "core"},
		{"empty stream", func(t *refTrace) {
			t.Streams[1].Ops = nil
		}, "Finish", "ops"},
		{"bad kind", func(t *refTrace) {
			t.Streams[0].Ops[1].Kind = config.NumTraceOps
		}, "Append", "kind"},
		{"negative gap", func(t *refTrace) {
			t.Streams[0].Ops[0].Gap = -1
		}, "Append", "gap"},
		{"negative instrs", func(t *refTrace) {
			t.Streams[0].Ops[2].Instrs = -5
		}, "Append", "instrs"},
		{"unaligned op address", func(t *refTrace) {
			t.Streams[0].Ops[0].Addr = 0x1001
		}, "Append", "addr"},
		{"halt before end", func(t *refTrace) {
			t.Streams[0].Ops[1] = halt
		}, "Append", "halt"},
		{"halt twice at end", func(t *refTrace) {
			t.Streams[1].Ops = append(t.Streams[1].Ops, halt)
		}, "Append", "halt"},
		{"missing final halt", func(t *refTrace) {
			s := &t.Streams[0]
			s.Ops = s.Ops[:len(s.Ops)-1]
		}, "Finish", "halt"},
	}
	for _, tc := range cases {
		ref := sampleRef()
		tc.mutate(ref)
		if err := ref.validate(); err == nil {
			t.Errorf("%s: not a rejection of the old Validate; the row pins nothing", tc.name)
		}
		stage, err := buildStaged(ref)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: building the trace returned %v, want a FormatError", tc.name, err)
			continue
		}
		if stage != tc.stage || fe.Field != tc.field {
			t.Errorf("%s: rejected by %s naming %q (%v), want %s naming %q",
				tc.name, stage, fe.Field, err, tc.stage, tc.field)
		}
		// The same trace as bytes: Decode refuses it, naming the same field.
		want := tc.field
		if want == "kind" {
			want = "rle"
		}
		if _, err := Decode(rawEncode(ref)); !errors.As(err, &fe) || fe.Field != want {
			t.Errorf("%s: Decode returned %v, want a FormatError naming %q", tc.name, err, want)
		}
	}

	// A Stream can still be given no Ops at all; that is the one stream
	// fault left for Validate, and Encode, to catch.
	tr := sampleRef().pack(t)
	tr.Streams[1].Ops = Ops{}
	var fe *FormatError
	if err := tr.Validate(); !errors.As(err, &fe) || fe.Field != "ops" {
		t.Errorf("zero Ops: Validate returned %v, want a FormatError naming ops", err)
	}
	if _, err := Encode(tr); err == nil {
		t.Error("zero Ops: Encode accepted an invalid trace")
	}
}

// buildStaged builds ref the way every producer does — ops through an
// OpsBuilder, the assembled trace through Validate — and reports which
// step refused it.
func buildStaged(ref *refTrace) (string, error) {
	tr := &Trace{Meta: ref.Meta, InitMem: ref.InitMem}
	for _, s := range ref.Streams {
		var b OpsBuilder
		for _, op := range s.Ops {
			if err := b.Append(op); err != nil {
				return "Append", err
			}
		}
		ops, err := b.Finish()
		if err != nil {
			return "Finish", err
		}
		tr.Streams = append(tr.Streams, Stream{Core: s.Core, Ops: ops})
	}
	if err := tr.Validate(); err != nil {
		return "Validate", err
	}
	return "", nil
}

// TestOpsBuilderRejectionLeavesBuilderUsable: a refused op changes
// nothing, so the stream built around it equals the stream built without
// it.
func TestOpsBuilderRejectionLeavesBuilderUsable(t *testing.T) {
	good := sampleRef().Streams[0].Ops
	want, err := packOps(good)
	if err != nil {
		t.Fatal(err)
	}
	var b OpsBuilder
	for i, op := range good {
		bad := op
		switch i % 3 {
		case 0:
			bad.Gap = -1
		case 1:
			bad.Kind = 0xFF
		default:
			bad.Kind, bad.Addr = config.TraceLoad, 3
		}
		if err := b.Append(bad); err == nil {
			t.Fatalf("op %d: builder accepted %+v", i, bad)
		}
		if err := b.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rejected ops left a mark on the stream")
	}
}

func TestReadWriteFile(t *testing.T) {
	path := t.TempDir() + "/sample.trc"
	orig := sampleRef().pack(t)
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("file round trip mismatch")
	}
}

// TestCodecStreamBytes: a stream's records must fill exactly the bytes
// its header declares. One byte short cuts its last record (here the
// halt's one-byte head); one byte long takes in the first byte of the
// next stream's header, left over once the stream's ops are read. Both
// are refused as the first stream's error, whatever the misframed rest
// of the file holds.
func TestCodecStreamBytes(t *testing.T) {
	ref := sampleRef()
	file := func(delta int) []byte {
		var w refWriter
		w.header(formatVersion, ref)
		w.uvarint(uint64(len(ref.Streams)))
		for i, s := range ref.Streams {
			rec := v4.records(s.Ops)
			w.uvarint(uint64(s.Core))
			w.uvarint(uint64(len(s.Ops)))
			if i == 0 {
				w.uvarint(uint64(len(rec) + delta))
			} else {
				w.uvarint(uint64(len(rec)))
			}
			w.buf = append(w.buf, rec...)
		}
		return w.buf
	}
	if _, err := Decode(file(0)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		delta      int
		field, msg string
	}{
		{-1, "ops", "truncated at core 0 op 5"},
		{+1, "bytes", "core 0: 1 bytes left after its 6 ops"},
	} {
		var fe *FormatError
		if _, err := Decode(file(tc.delta)); !errors.As(err, &fe) || fe.Field != tc.field || fe.Msg != tc.msg {
			t.Errorf("bytes off by %+d: got %v, want %q %q", tc.delta, err, tc.field, tc.msg)
		}
	}
}

// withProcs runs f at each GOMAXPROCS setting Decode is held to.
func withProcs(f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestDecodeSameAtAnyWidth: Decode checks streams on up to GOMAXPROCS
// goroutines, and what it returns must not depend on how many. A Zipf
// trace of eight streams decodes to the same Trace at 1, 2 and 8, in
// Encode's spelling (each stream kept as checked) and with its runs
// split (each stream rebuilt).
func TestDecodeSameAtAnyWidth(t *testing.T) {
	tr := Zipf(SynthParams{Cores: 8, OpsPerCore: 5000, Seed: 3})
	enc, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	split := splitRuns(unpack(tr))
	withProcs(func(procs int) {
		for name, data := range map[string][]byte{"canonical": enc, "split runs": split} {
			for i := 0; i < 5; i++ {
				got, err := Decode(data)
				if err != nil {
					t.Fatalf("%s, GOMAXPROCS %d: %v", name, procs, err)
				}
				if !reflect.DeepEqual(got, tr) {
					t.Fatalf("%s, GOMAXPROCS %d: decoded trace differs from the encoded one", name, procs)
				}
			}
		}
	})
}

// TestDecodeErrorIsSequential: with several faults in a file, Decode
// returns the one a reader taking header, records, header, ... in turn
// meets first, at any width, its offset counted from the start of the
// file. Streams 2 and 5 of eight end in a cut varint (the halt's
// instrs, 9, made 0x87: a continuation byte with nothing after it), and
// the header after stream 6 names a core out of range: stream 2's error
// wins. Each fault alone is reported as itself, so the test pins which
// one wins.
func TestDecodeErrorIsSequential(t *testing.T) {
	ops := longOps()
	ref := &refTrace{Meta: Meta{Protocol: "MESI", Workload: "faults", Seed: 1,
		Sys: normalizeSys(config.Small(8))}}
	file := func(badBody []int, badHeader bool) []byte {
		var w refWriter
		w.header(formatVersion, ref)
		w.uvarint(8)
		for core := 0; core < 8; core++ {
			rec := v4.records(ops)
			if slices.Contains(badBody, core) {
				rec[len(rec)-1] = 0x87
			}
			if core == 7 && badHeader {
				core = 1 << 21
			}
			w.stream(formatVersion, core, len(ops), rec)
		}
		return w.buf
	}
	const (
		body2 = "core 2: bad or truncated varint (instrs) at offset 10975"
		body5 = "core 5: bad or truncated varint (instrs) at offset 21910"
		head7 = "stream core id 2097152 out of range"
	)
	cases := []struct {
		name       string
		data       []byte
		field, msg string
	}{
		{"streams 2 and 5, header 7", file([]int{2, 5}, true), "instrs", body2},
		{"stream 5, header 7", file([]int{5}, true), "instrs", body5},
		{"stream 5", file([]int{5}, false), "instrs", body5},
		{"header 7", file(nil, true), "core", head7},
	}
	if _, err := Decode(file(nil, false)); err != nil {
		t.Fatal(err)
	}
	withProcs(func(procs int) {
		for _, tc := range cases {
			for i := 0; i < 5; i++ {
				var fe *FormatError
				if _, err := Decode(tc.data); !errors.As(err, &fe) || fe.Field != tc.field || fe.Msg != tc.msg {
					t.Fatalf("%s, GOMAXPROCS %d: got %v, want %q %q", tc.name, procs, err, tc.field, tc.msg)
				}
			}
		}
	})
}
