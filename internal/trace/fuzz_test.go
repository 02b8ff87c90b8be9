package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// traceFromBytes deterministically derives a structurally valid trace,
// as op values, from arbitrary fuzz input: the bytes seed an RNG that
// draws sizes, kinds, addresses and values, so every input maps to some
// well-formed trace while small input mutations explore very different
// shapes. One op in five repeats its predecessor, so runs — and, in the
// split spelling of splitRuns, the adjacent identical records the
// decoder must fold — are common.
func traceFromBytes(data []byte) *refTrace {
	seed := uint64(len(data))
	for i, b := range data {
		seed = seed*1099511628211 + uint64(b)<<(uint(i)%56)
	}
	rng := sim.NewRNG(seed)
	cores := 1 + rng.Intn(6)
	sys := normalizeSys(config.Small(cores))
	t := &refTrace{Meta: Meta{
		Protocol: "fuzz-proto",
		Workload: "fuzz",
		Seed:     rng.Uint64(),
		Sys:      sys,
	}}
	addr := uint64(0)
	for i := 0; i < rng.Intn(20); i++ {
		addr += uint64(8 * (1 + rng.Intn(1000)))
		t.InitMem = append(t.InitMem, MemWord{Addr: addr, Val: rng.Uint64()})
	}
	for core := 0; core < cores; core++ {
		if rng.Intn(4) == 0 && core != cores-1 {
			continue // some cores idle
		}
		var ops []Op
		for i := 0; i < rng.Intn(40); i++ {
			if len(ops) > 0 && rng.Intn(5) == 0 {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					ops = append(ops, ops[len(ops)-1])
				}
				continue
			}
			op := Op{
				Kind:   config.TraceOp(rng.Intn(int(config.TraceHalt))),
				Gap:    rng.Int63n(1 << 20),
				Instrs: rng.Int63n(1 << 20),
			}
			if op.Kind.HasAddr() {
				op.Addr = uint64(rng.Int63n(1<<40)) &^ 7
			}
			if op.Kind.HasVal() {
				op.Val = rng.Uint64()
			}
			if op.Kind == config.TraceCAS {
				op.Val2 = rng.Uint64()
			}
			ops = append(ops, op)
		}
		g := 1 + rng.Int63n(100)
		ops = append(ops, Op{Kind: config.TraceHalt, Gap: g, Instrs: g})
		t.Streams = append(t.Streams, refStream{Core: core, Ops: ops})
	}
	return t
}

// splitRuns re-spells a version-2 encoding of ref with every repeat
// marker of count >= 2 split in two and, where the run allows it, one
// repeat written out as a full record: valid, the same ops, but not the
// bytes Encode writes. Decode must fold it back.
func splitRuns(ref *refTrace) []byte {
	e := encoder{buf: rawEncode(&refTrace{Meta: ref.Meta, InitMem: ref.InitMem})}
	e.buf = e.buf[:len(e.buf)-1] // drop the empty stream count
	e.uvarint(uint64(len(ref.Streams)))
	for _, s := range ref.Streams {
		e.uvarint(uint64(s.Core))
		e.uvarint(uint64(len(s.Ops)))
		prev := uint64(0)
		for i := 0; i < len(s.Ops); {
			op := s.Ops[i]
			e.record(op, &prev)
			run := 0
			for i+1+run < len(s.Ops) && sameWire(s.Ops[i+1+run], op) {
				run++
			}
			switch {
			case run >= 3: // marker, full record, marker
				e.marker(1)
				e.record(op, &prev)
				e.marker(run - 2)
			case run == 2: // two markers
				e.marker(1)
				e.marker(1)
			case run == 1: // full record with a zero address delta
				e.record(op, &prev)
			}
			i += 1 + run
		}
	}
	return e.buf
}

// checkAgainstReferee holds the packed codec to the materializing one
// on arbitrary bytes: Decode accepts data iff refDecode does, cursors
// yield refDecode's ops, and re-encoding writes refEncode's bytes —
// which decode, packed, to a deep-equal trace. It returns the decoded
// trace, nil if data was rejected.
func checkAgainstReferee(t *testing.T, data []byte) *Trace {
	t.Helper()
	ref, refErr := refDecode(data)
	tr, err := Decode(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Decode and the referee disagree on acceptance:\n packed:  %v\n referee: %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("decode accepted a structurally invalid trace: %v", err)
	}
	if got := unpack(tr); !reflect.DeepEqual(got, ref) {
		t.Fatalf("cursors do not yield the referee's ops:\n packed:  %+v\n referee: %+v", got, ref)
	}
	want, refErr := refEncode(ref)
	enc, err := Encode(tr)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Encode and the referee disagree:\n packed:  %v\n referee: %v", err, refErr)
	}
	if err != nil {
		return tr // over the op budget for its own encoding; both refuse
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("Encode wrote %d bytes, the referee %d, and they differ", len(enc), len(want))
	}
	again, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	if !reflect.DeepEqual(tr, again) {
		t.Fatal("decode of the re-encoding does not deep-equal the first decode: Decode kept non-canonical bytes")
	}
	return tr
}

// FuzzTraceRoundTrip is the codec's fuzz gate. For a structurally valid
// trace derived from the fuzz input:
//
//  1. Building it through OpsBuilder and encoding it writes the bytes
//     the referee encoder writes; decode deep-equals the built trace
//     and re-encode is byte-identical (version 2, the current format).
//  2. A spelling with every run split decodes to the same deep-equal
//     trace: Decode folds it through the builder, it does not keep its
//     bytes.
//
// And for the raw fuzz input itself — almost always garbage:
//
//  3. Decode never panics, accepts it iff the referee decoder does,
//     and then agrees with the referee op for op and byte for byte.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("TSOCCTRC"))
	if seed, err := Encode(sampleRef().pack(f)); err == nil {
		f.Add(seed)
	}
	// A long stream, so mutations land far from the end of the input
	// too, where a reader may skip bounds checks.
	f.Add(spell(longOps(), len(longOps()), nil))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(splitRuns(spinRef(3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := traceFromBytes(data)
		if err := ref.validate(); err != nil {
			t.Fatalf("generator emitted invalid trace: %v", err)
		}
		tr := ref.pack(t)
		enc, err := Encode(tr)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if dec := checkAgainstReferee(t, enc); !reflect.DeepEqual(tr, dec) {
			t.Fatal("decode does not deep-equal the original")
		}
		if !reflect.DeepEqual(ref, unpack(tr)) {
			t.Fatal("cursors do not yield the ops that were appended")
		}

		// Another spelling of the same trace must decode to the same
		// Trace — the same canonical bytes in memory, not an alias of the
		// input.
		if dec := checkAgainstReferee(t, splitRuns(ref)); !reflect.DeepEqual(tr, dec) {
			t.Fatal("decode of split runs does not deep-equal the original")
		}

		// Raw input.
		checkAgainstReferee(t, data)
	})
}
