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
// wire-identical except inside the runs, which spell as markers. A
// quarter of the records fit gap and instrs in the head, a quarter more
// carry a gap with instrs equal to it (head code 30), the rest both
// (code 31).
func longOps() []Op {
	rng := sim.NewRNG(41)
	var ops []Op
	for len(ops) < 397 {
		op := Op{Kind: config.TraceOp(rng.Intn(int(config.TraceHalt))),
			Gap: 1 + rng.Int63n(300), Instrs: 1 + rng.Int63n(300)}
		switch rng.Intn(4) {
		case 0:
			op.Gap = rng.Int63n(15)
			op.Instrs = op.Gap + rng.Int63n(2)
		case 1:
			op.Instrs = op.Gap
		}
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
		Op{Kind: config.TraceStore, Addr: 0x2000, Val: 5, Gap: 3, Instrs: 4},
		Op{Kind: config.TraceCAS, Addr: 0x2008, Val: 1, Val2: 2, Gap: 4, Instrs: 1},
		Op{Kind: config.TraceHalt, Gap: 7, Instrs: 9})
}

// spell writes ops as a one-stream file declaring nops ops, its
// records spelled by spellRecords.
func spell(ops []Op, nops int, fix func(j int, field string, b []byte) []byte) []byte {
	return bombFile(uint64(nops), spellRecords(ops, fix))
}

// spellRecords writes the records of ops as Encode would: one record per run of wire-identical ops, followed by a repeat
// marker if the run is longer than one. fix, if not nil, may replace
// the bytes of any field of op j ("head", "gap", "instrs", "addr",
// "val", "val2", and "rle", the count of the marker after it) and may
// add bytes after the record ("after"). A field the record does not
// carry (gap and instrs where the head holds them) is offered as nil,
// so fix can add it.
func spellRecords(ops []Op, fix func(j int, field string, b []byte) []byte) []byte {
	if fix == nil {
		fix = func(_ int, _ string, b []byte) []byte { return b }
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	var out []byte
	prev := uint64(0)
	for j := 0; j < len(ops); {
		op := ops[j]
		code := refCode(uint64(op.Gap), uint64(op.Instrs))
		var gap, instrs []byte
		if code >= 30 {
			gap = uv(uint64(op.Gap))
		}
		if code == 31 {
			instrs = uv(uint64(op.Instrs))
		}
		out = append(out, fix(j, "head", []byte{code<<3 | byte(op.Kind)})...)
		out = append(out, fix(j, "gap", gap)...)
		out = append(out, fix(j, "instrs", instrs)...)
		if op.Kind.HasAddr() {
			d := int64(op.Addr - prev)
			out = append(out, fix(j, "addr", uv(uint64(d<<1)^uint64(d>>63)))...)
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
			out = append(out, 0x07)
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
// with the same message — or, for a padded varint or a longer head code
// than the record needs, accepted and rebuilt to the canonical bytes.
// Versions 3 and 4 have no byte that is a bad kind: the head's low bits 7 are
// the repeat marker, so what a kind byte of 7 or more was is now a
// marker with stray high bits, refused as "rle".
func TestScanErrorParity(t *testing.T) {
	ops := longOps()
	n := len(ops)
	valid := spell(ops, n, nil)
	want, err := Decode(valid)
	if err != nil {
		t.Fatal(err)
	}
	if want.Streams[0].Ops.Size() != len(spellRecords(ops, nil)) {
		t.Fatal("the reference spelling is not canonical")
	}
	code := func(j int) byte { return refCode(uint64(ops[j].Gap), uint64(ops[j].Instrs)) }
	// find returns the first op from 200 on (hundreds of bytes from the
	// end) that starts a record and satisfies ok.
	find := func(ok func(j int) bool) int {
		j := 200
		for !ok(j) || sameWire(ops[j-1], ops[j]) {
			j++
		}
		return j
	}
	early := find(func(j int) bool { return ops[j].Kind == config.TraceStore && code(j) == 31 })
	short := find(func(j int) bool { return ops[j].Kind.HasAddr() && code(j) < 30 && ops[j].Gap == ops[j].Instrs })
	gapOnly := find(func(j int) bool { return code(j) == 30 })
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
	// set rewrites fields of op j; a nil value drops the field.
	set := func(j int, fields map[string][]byte) func(int, string, []byte) []byte {
		return func(jj int, f string, old []byte) []byte {
			if b, ok := fields[f]; ok && jj == j {
				return b
			}
			return old
		}
	}
	at := func(j int, field string, b []byte) func(int, string, []byte) []byte {
		return set(j, map[string][]byte{field: b})
	}
	head := func(j int, kind config.TraceOp) []byte { return []byte{code(j)<<3 | byte(kind)} }
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
			"core 0: bad or truncated varint (addr) at offset 1934"},
		{"overlong varint, last record", spell(ops, n, at(n-1, "instrs", overlong)), "instrs",
			"core 0: bad or truncated varint (instrs) at offset 3683"},
		{"10th varint byte > 1, early", spell(ops, n, at(early, "gap", tenth)), "gap",
			"core 0: bad or truncated varint (gap) at offset 1931"},
		{"10th varint byte > 1, last record", spell(ops, n, at(n-1, "gap", tenth)), "gap",
			"core 0: bad or truncated varint (gap) at offset 3682"},
		{"10th varint byte > 1, last val2", spell(ops, n, at(n-2, "val2", tenth)), "val2",
			"core 0: bad or truncated varint (val2) at offset 3680"},
		{"unaligned address, early", spell(ops, n, at(early, "addr", uv(zigzag(delta(early)+4)))), "addr",
			"core 0: op 209 address 0x1e16c not 8-aligned"},
		{"unaligned address, last", spell(ops, n, at(n-2, "addr", uv(zigzag(12)))), "addr",
			"core 0: op 398 address 0x200c not 8-aligned"},
		{"kind 7: a marker with stray bits, early", spell(ops, n, at(early, "head", head(early, 7))), "rle",
			"core 0 op 209: repeat marker 0xff has stray high bits"},
		{"a marker with stray bits, last record", spell(ops, n, at(n-1, "head", []byte{0x87})), "rle",
			"core 0 op 399: repeat marker 0x87 has stray high bits"},
		{"gap 2^62+1, early", spell(ops, n, at(early, "gap", uv(1<<62+1))), "gap",
			"core 0: op 209 has gap 4611686018427387905 outside [0, 2^62]"},
		{"gap 2^62+1 behind code 30", spell(ops, n, at(gapOnly, "gap", uv(1<<62+1))), "gap",
			"core 0: op 201 has gap 4611686018427387905 outside [0, 2^62]"},
		{"gap 2^62+1, last record", spell(ops, n, at(n-1, "gap", uv(1<<62+1))), "gap",
			"core 0: op 399 has gap 4611686018427387905 outside [0, 2^62]"},
		{"instrs 2^64-1, last record", spell(ops, n, at(n-1, "instrs", uv(^uint64(0)))), "instrs",
			"core 0: op 399 has instrs -1 outside [0, 2^62]"},
		{"early halt, early", spell(ops, n, set(early, map[string][]byte{
			"head": head(early, config.TraceHalt), "addr": nil, "val": nil})), "halt",
			"core 0 has halt at op 209 before end of stream"},
		{"early halt, last records", spell(ops, n, set(n-2, map[string][]byte{
			"head": head(n-2, config.TraceHalt), "addr": nil, "val": nil, "val2": nil})), "halt",
			"core 0 has halt at op 398 before end of stream"},
		{"no final halt", spell(ops, n, at(n-1, "head", head(n-1, config.TraceFence))), "halt",
			"core 0 stream does not end in halt"},
		{"oversized repeat, early", spell(ops, n, at(early, "after", []byte{0x07, 0x80, 0x04})), "rle",
			"core 0 op 210: repeat count 512 exceeds declared ops"},
		{"oversized repeat, last record", spell(ops, n, at(n-2, "after", []byte{0x07, 2})), "rle",
			"core 0 op 399: repeat count 2 exceeds declared ops"},
		{"truncated, last record", spell(ops, n, at(n-1, "instrs", []byte{0x80})), "instrs",
			"core 0: bad or truncated varint (instrs) at offset 3683"},
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

	// Padded varints and longer head codes are valid: accepted anywhere,
	// and rebuilt to the canonical bytes.
	g := uint64(ops[short].Gap)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"padded gap, early", spell(ops, n, at(early, "gap", pad(uint64(ops[early].Gap))))},
		{"padded addr, early", spell(ops, n, at(early, "addr", pad(zigzag(delta(early)))))},
		{"padded instrs, last record", spell(ops, n, at(n-1, "instrs", pad(9)))},
		{"padded repeat count", spell(ops, n, at(run, "rle", pad(2)))},
		{"code 30 for a head-sized gap", spell(ops, n, set(short, map[string][]byte{
			"head": {30<<3 | byte(ops[short].Kind)}, "gap": uv(g)}))},
		{"code 31 for a head-sized gap", spell(ops, n, set(short, map[string][]byte{
			"head": {31<<3 | byte(ops[short].Kind)}, "gap": uv(g), "instrs": uv(g)}))},
		{"code 31 for instrs = gap", spell(ops, n, set(gapOnly, map[string][]byte{
			"head": {31<<3 | byte(ops[gapOnly].Kind)}, "instrs": uv(uint64(ops[gapOnly].Gap))}))},
		{"code 31 for the last store's head-sized gap", spell(ops, n, set(n-3, map[string][]byte{
			"head": {31<<3 | byte(config.TraceStore)}, "gap": uv(3), "instrs": uv(4)}))},
	} {
		got, err := Decode(tc.data)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the spelling did not rebuild to the canonical stream", tc.name)
		}
	}
}
