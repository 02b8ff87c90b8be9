package trace

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

// TestRehomedEqualsRebuild: shifting a stream's addresses by patching
// its first address record gives exactly the stream the builder makes
// from the shifted ops — same bytes, so still canonical — across the
// shapes that matter: leading fences and a fence run before the first
// address, a first address record that is itself repeated, no address
// at all, offsets that lengthen the varint, and fuzz-derived streams.
func TestRehomedEqualsRebuild(t *testing.T) {
	halt := Op{Kind: config.TraceHalt, Gap: 1, Instrs: 1}
	fence := Op{Kind: config.TraceFence, Gap: 2, Instrs: 1}
	load := Op{Kind: config.TraceLoad, Addr: 0x40, Gap: 3, Instrs: 1}
	streams := [][]Op{
		{load, halt},
		{load, load, load, {Kind: config.TraceStore, Addr: 0x40, Val: 9, Gap: 3, Instrs: 1}, halt},
		{fence, fence, fence, load, load, {Kind: config.TraceLoad, Addr: 0, Gap: 3, Instrs: 1}, halt},
		{fence, {Kind: config.TraceCAS, Addr: 1 << 40, Val: 1, Val2: 2, Gap: 0, Instrs: 0}, fence, load, halt},
		{fence, fence, halt},
		{halt},
	}
	for seed := byte(0); seed < 50; seed++ {
		for _, s := range traceFromBytes([]byte{seed, 0xA5}).Streams {
			streams = append(streams, s.Ops)
		}
	}
	for i, ops := range streams {
		base, err := packOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []uint64{0, 8, 1 << 12, 1 << 33, 1 << 62} {
			shifted := make([]Op, len(ops))
			for j, op := range ops {
				if op.Kind.HasAddr() {
					op.Addr += off
				}
				shifted[j] = op
			}
			want, err := packOps(shifted)
			if err != nil {
				t.Fatal(err)
			}
			if got := base.rehomed(off); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream %d off %#x: rehomed differs from a rebuild:\n got  %+v\n want %+v", i, off, got, want)
			}
		}
	}
}
