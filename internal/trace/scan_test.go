package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// longOps is a 400-op stream of every addressed kind, fences, a few
// runs and a closing store, CAS, halt; no two neighbours are
// wire-identical except inside the runs, which spell as markers.
func longOps() []Op {
	rng := sim.NewRNG(41)
	var ops []Op
	for len(ops) < 397 {
		op := Op{Kind: config.TraceOp(rng.Intn(int(config.TraceHalt))),
			Gap: 1 + rng.Int63n(300), Instrs: 1 + rng.Int63n(300)}
		if op.Kind.HasAddr() {
			op.Addr = 0x1000 + uint64(rng.Intn(1<<16))*8
		}
		if op.Kind.HasVal() {
			op.Val = rng.Uint64() >> uint(rng.Intn(64))
		}
		if op.Kind == config.TraceCAS {
			op.Val2 = rng.Uint64()
		}
		ops = append(ops, op)
		if rng.Intn(16) == 0 {
			ops = append(ops, op, op)
		}
	}
	return append(ops[:397],
		Op{Kind: config.TraceStore, Addr: 0x2000, Val: 5, Gap: 3, Instrs: 2},
		Op{Kind: config.TraceCAS, Addr: 0x2008, Val: 1, Val2: 2, Gap: 4, Instrs: 1},
		Op{Kind: config.TraceHalt, Gap: 7, Instrs: 9})
}

// spell writes ops as a one-stream file declaring nops ops, as Encode
// would: one record per run of wire-identical ops, followed by a repeat
// marker if the run is longer than one. fix, if not nil, may replace
// the bytes of any field of op j ("kind", "gap", "instrs", "addr",
// "val", "val2", and "rle", the count of the marker after it) and may
// add bytes after the record ("after").
func spell(ops []Op, nops int, fix func(j int, field string, b []byte) []byte) []byte {
	if fix == nil {
		fix = func(_ int, _ string, b []byte) []byte { return b }
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	out := bombHeader(uint64(nops))
	prev := uint64(0)
	for j := 0; j < len(ops); {
		op := ops[j]
		out = append(out, fix(j, "kind", []byte{byte(op.Kind)})...)
		out = append(out, fix(j, "gap", uv(uint64(op.Gap)))...)
		out = append(out, fix(j, "instrs", uv(uint64(op.Instrs)))...)
		if op.Kind.HasAddr() {
			out = append(out, fix(j, "addr", uv(zigzag(int64(op.Addr-prev))))...)
			prev = op.Addr
		}
		if op.Kind.HasVal() {
			out = append(out, fix(j, "val", uv(op.Val))...)
		}
		if op.Kind == config.TraceCAS {
			out = append(out, fix(j, "val2", uv(op.Val2))...)
		}
		run := 0
		for j+1+run < len(ops) && sameWire(ops[j+1+run], op) {
			run++
		}
		if run > 0 {
			out = append(out, rleMarker)
			out = append(out, fix(j, "rle", uv(uint64(run)))...)
		}
		out = append(out, fix(j, "after", nil)...)
		j += 1 + run
	}
	return out
}

// TestScanErrorParity pins Decode's stream scan, field by field, to the
// errors the op-at-a-time scan it replaced returned: each corruption
// is placed once in a record well before the end of the input (where a
// reader may skip bounds checks) and once in the stream's last records
// (where it may not), and must be refused naming the same field
// with the same message — or, for a padded varint, accepted and rebuilt
// to the canonical bytes.
func TestScanErrorParity(t *testing.T) {
	ops := longOps()
	n := len(ops)
	valid := spell(ops, n, nil)
	want, err := Decode(valid)
	if err != nil {
		t.Fatal(err)
	}
	if want.Streams[0].Ops.Size() != len(valid)-len(bombHeader(uint64(n))) {
		t.Fatal("the reference spelling is not canonical")
	}
	early := 200 // a store: addr and val; hundreds of bytes from the end
	for ops[early].Kind != config.TraceStore || sameWire(ops[early-1], ops[early]) {
		early++
	}
	// delta is the address delta op j is spelled with.
	delta := func(j int) int64 {
		prev := uint64(0)
		for _, op := range ops[:j] {
			if op.Kind.HasAddr() {
				prev = op.Addr
			}
		}
		return int64(ops[j].Addr - prev)
	}
	run := 1 // the first op followed by a repeat marker
	for !sameWire(ops[run], ops[run+1]) {
		run++
	}
	// at rewrites one field of op j; nil drops the field.
	at := func(j int, field string, b []byte) func(int, string, []byte) []byte {
		return func(jj int, f string, old []byte) []byte {
			if jj == j && f == field {
				return b
			}
			return old
		}
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// pad spells v one byte longer than it needs: valid, not canonical.
	pad := func(v uint64) []byte {
		b := uv(v)
		b[len(b)-1] |= 0x80
		return append(b, 0)
	}
	overlong := bytes.Repeat([]byte{0x80}, 11)
	tenth := append(bytes.Repeat([]byte{0xFF}, 9), 0x02)
	cases := []struct {
		name  string
		data  []byte
		field string
		msg   string
	}{
		{"overlong varint, early", spell(ops, n, at(early, "addr", overlong)), "addr",
			"core 0: bad or truncated varint (addr) at offset 2153"},
		{"overlong varint, last record", spell(ops, n, at(n-1, "instrs", overlong)), "instrs",
			"core 0: bad or truncated varint (instrs) at offset 4167"},
		{"10th varint byte > 1, early", spell(ops, n, at(early, "gap", tenth)), "gap",
			"core 0: bad or truncated varint (gap) at offset 2150"},
		{"10th varint byte > 1, last record", spell(ops, n, at(n-1, "gap", tenth)), "gap",
			"core 0: bad or truncated varint (gap) at offset 4166"},
		{"10th varint byte > 1, last val2", spell(ops, n, at(n-2, "val2", tenth)), "val2",
			"core 0: bad or truncated varint (val2) at offset 4164"},
		{"unaligned address, early", spell(ops, n, at(early, "addr", uv(zigzag(delta(early)+4)))), "addr",
			"core 0: op 207 address 0x2fa1c not 8-aligned"},
		{"unaligned address, last", spell(ops, n, at(n-2, "addr", uv(zigzag(12)))), "addr",
			"core 0: op 398 address 0x200c not 8-aligned"},
		{"bad kind, early", spell(ops, n, at(early, "kind", []byte{byte(config.NumTraceOps)})), "kind",
			"core 0: op 207 has bad kind 7"},
		{"bad kind, last record", spell(ops, n, at(n-1, "kind", []byte{0x80})), "kind",
			"core 0: op 399 has bad kind 128"},
		{"gap 2^62+1, early", spell(ops, n, at(early, "gap", uv(1<<62+1))), "gap",
			"core 0: op 207 has gap 4611686018427387905 outside [0, 2^62]"},
		{"gap 2^62+1, last record", spell(ops, n, at(n-1, "gap", uv(1<<62+1))), "gap",
			"core 0: op 399 has gap 4611686018427387905 outside [0, 2^62]"},
		{"instrs 2^64-1, last record", spell(ops, n, at(n-1, "instrs", uv(^uint64(0)))), "instrs",
			"core 0: op 399 has instrs -1 outside [0, 2^62]"},
		{"early halt, early", spell(ops, n, func(j int, f string, b []byte) []byte {
			if j == early && f == "kind" {
				return []byte{byte(config.TraceHalt)}
			}
			if j == early && (f == "addr" || f == "val") {
				return nil
			}
			return b
		}), "halt",
			"core 0 has halt at op 207 before end of stream"},
		{"early halt, last records", spell(ops, n, func(j int, f string, b []byte) []byte {
			if j == n-2 && f == "kind" {
				return []byte{byte(config.TraceHalt)}
			}
			if j == n-2 && (f == "addr" || f == "val" || f == "val2") {
				return nil
			}
			return b
		}), "halt",
			"core 0 has halt at op 398 before end of stream"},
		{"no final halt", spell(ops, n, at(n-1, "kind", []byte{byte(config.TraceFence)})), "halt",
			"core 0 stream does not end in halt"},
		{"oversized repeat, early", spell(ops, n, at(early, "after", []byte{rleMarker, 0x80, 0x04})), "rle",
			"core 0 op 208: repeat count 512 exceeds declared ops"},
		{"oversized repeat, last record", spell(ops, n, at(n-2, "after", []byte{rleMarker, 2})), "rle",
			"core 0 op 399: repeat count 2 exceeds declared ops"},
		{"truncated, last record", spell(ops, n, at(n-1, "instrs", []byte{0x80})), "instrs",
			"core 0: bad or truncated varint (instrs) at offset 4167"},
	}
	for _, tc := range cases {
		_, err := Decode(tc.data)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: Decode returned %v, want a FormatError", tc.name, err)
			continue
		}
		if fe.Field != tc.field || fe.Msg != tc.msg {
			t.Errorf("%s: got %q %q\n\twant %q %q", tc.name, fe.Field, fe.Msg, tc.field, tc.msg)
		}
	}

	// Padded varints are valid: accepted anywhere, and rebuilt to the
	// canonical bytes.
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"padded gap, early", spell(ops, n, at(early, "gap", pad(uint64(ops[early].Gap))))},
		{"padded addr, early", spell(ops, n, at(early, "addr", pad(zigzag(delta(early)))))},
		{"padded instrs, last record", spell(ops, n, at(n-1, "instrs", pad(9)))},
		{"padded repeat count", spell(ops, n, at(run, "rle", pad(2)))},
	} {
		got, err := Decode(tc.data)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the padded spelling did not rebuild to the canonical stream", tc.name)
		}
	}
}
