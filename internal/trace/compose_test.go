package trace_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
)

// TestComposeStructure: composing small traces onto a larger core count
// tiles full instances, re-homes streams contiguously, keeps instance
// address spaces disjoint, and is deterministic.
func TestComposeStructure(t *testing.T) {
	p := trace.SynthParams{Cores: 2, OpsPerCore: 32, Seed: 9}
	zipf := trace.Zipf(p)
	migr := trace.Migratory(p)

	out, err := trace.Compose(7, zipf, migr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Meta.Sys.Cores != 7 {
		t.Fatalf("composed geometry has %d cores, want 7", out.Meta.Sys.Cores)
	}
	// 3 two-core instances fit in 7 cores; core 6 stays idle.
	if len(out.Streams) != 6 {
		t.Fatalf("composed trace has %d streams, want 6", len(out.Streams))
	}
	for i, s := range out.Streams {
		if s.Core != i {
			t.Fatalf("stream %d on core %d, want contiguous re-homing", i, s.Core)
		}
	}

	// Instance address spaces must be disjoint: collect per-instance
	// address ranges (instance = core pair) and check they never overlap.
	type rng struct{ lo, hi uint64 }
	ranges := make([]rng, 3)
	for i := range ranges {
		ranges[i].lo = ^uint64(0)
	}
	for _, s := range out.Streams {
		inst := s.Core / 2
		c := s.Ops.Cursor()
		for op, ok := c.Next(); ok; op, ok = c.Next() {
			if !op.Kind.HasAddr() {
				continue
			}
			if op.Addr < ranges[inst].lo {
				ranges[inst].lo = op.Addr
			}
			if op.Addr > ranges[inst].hi {
				ranges[inst].hi = op.Addr
			}
		}
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].lo <= ranges[i-1].hi {
			t.Fatalf("instance %d address range [%#x,%#x] overlaps instance %d (hi %#x)",
				i, ranges[i].lo, ranges[i].hi, i-1, ranges[i-1].hi)
		}
	}

	// Determinism: same inputs, byte-identical encoding.
	a, err := trace.Encode(out)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := trace.Compose(7, trace.Zipf(p), trace.Migratory(p))
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.Encode(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("composition is not deterministic")
	}

	// Error cases: target too small for one instance, and no parts.
	if _, err := trace.Compose(1, zipf); err == nil {
		t.Fatal("composing a 2-core trace onto 1 core should fail")
	}
	if _, err := trace.Compose(4); err == nil {
		t.Fatal("composing zero parts should fail")
	}
}

// TestComposeReplay: a composed trace replays end-to-end and issues
// exactly instance-count multiples of the source operations — the
// instances are independent, so nothing is lost or double-counted.
func TestComposeReplay(t *testing.T) {
	src := trace.Zipf(trace.SynthParams{Cores: 2, OpsPerCore: 40, Seed: 3})
	wantLoads, wantStores := countLoadsStores(src)
	out, err := trace.Compose(6, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := system.Replay(config.Small(6), tsocc.New(config.C12x3()), out)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Loads != 3*wantLoads || rep.Stores != 3*wantStores {
		t.Fatalf("composed replay issued ld=%d st=%d, want ld=%d st=%d",
			rep.Loads, rep.Stores, 3*wantLoads, 3*wantStores)
	}
}

// TestComposeRefusesOversizedTarget: a target past config.MaxCores is
// refused with the header's cores error before anything is tiled, so
// even an absurd target costs no allocation to speak of.
func TestComposeRefusesOversizedTarget(t *testing.T) {
	part := trace.Zipf(trace.SynthParams{Cores: 8, OpsPerCore: 4096, Seed: 1})
	for _, cores := range []int{config.MaxCores + 1, 1 << 30} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := trace.Compose(cores, part)
		runtime.ReadMemStats(&after)
		var fe *trace.FormatError
		if out != nil || !errors.As(err, &fe) || fe.Field != "cores" {
			t.Fatalf("Compose(%d): trace %v, error %v; want a cores FormatError", cores, out != nil, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("Compose(%d) allocated %d bytes before refusing; want under 1 MiB", cores, got)
		}
	}
}

// TestComposeLargeAllocation composes 8-core parts onto 256 cores — 32
// instances — and pins what that costs: one copy of each placed stream's
// bytes, i.e. the composed trace's own size, not 48 bytes per op and not
// a decode plus a re-encode. (The first instance, at offset 0, shares
// its part's bytes, so the copy is in fact 31/32 of that.)
func TestComposeLargeAllocation(t *testing.T) {
	p := trace.SynthParams{Cores: 8, OpsPerCore: 20000, Seed: 4}
	zipf, scan := trace.Zipf(p), trace.Scan(p)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := trace.Compose(256, zipf, scan)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Streams) != 256 || out.Ops() != 16*(zipf.Ops()+scan.Ops()) {
		t.Fatalf("composed %d streams, %d ops; want 256 streams, %d ops",
			len(out.Streams), out.Ops(), 16*(zipf.Ops()+scan.Ops()))
	}
	size := 0
	for _, s := range out.Streams {
		size += s.Ops.Size()
	}
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(size + size/20 + 64<<10); got > limit {
		t.Errorf("Compose allocated %d bytes for %d bytes of streams (%d ops); want <= %d",
			got, size, out.Ops(), limit)
	}
	t.Logf("256-core composition: %d ops, %d stream bytes, %d bytes allocated (%.2f B/op)",
		out.Ops(), size, got, float64(got)/float64(out.Ops()))

	// It is the trace it claims to be: the last instance is the second
	// part shifted by 31 strides, op for op.
	first := func(o trace.Ops) trace.Op {
		c := o.Cursor()
		op, _ := c.Next()
		return op
	}
	a, b := first(scan.Streams[7].Ops), first(out.Streams[255].Ops)
	if b.Addr <= a.Addr || (b.Addr-a.Addr)%31 != 0 || b.Kind != a.Kind || b.Gap != a.Gap {
		t.Fatalf("last instance's first op %+v is not part op %+v shifted by 31 strides", b, a)
	}
	if _, err := trace.Encode(out); err != nil {
		t.Fatalf("composed trace does not encode: %v", err)
	}
}
