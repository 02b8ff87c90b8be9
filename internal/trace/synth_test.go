package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
)

var synthGens = []struct {
	name string
	gen  func(trace.SynthParams) *trace.Trace
}{
	{"zipf", trace.Zipf},
	{"migratory", trace.Migratory},
	{"scan", trace.Scan},
}

// countLoadsStores walks every stream's cursor.
func countLoadsStores(tr *trace.Trace) (loads, stores int64) {
	for _, s := range tr.Streams {
		c := s.Ops.Cursor()
		for op, ok := c.Next(); ok; op, ok = c.Next() {
			switch op.Kind {
			case config.TraceLoad:
				loads++
			case config.TraceStore:
				stores++
			}
		}
	}
	return loads, stores
}

// TestSynthDeterministic: identical parameters produce byte-identical
// traces; a different seed produces a different stream.
func TestSynthDeterministic(t *testing.T) {
	for _, g := range synthGens {
		t.Run(g.name, func(t *testing.T) {
			p := trace.SynthParams{Cores: 4, OpsPerCore: 64, Seed: 11}
			a, err := trace.Encode(g.gen(p))
			if err != nil {
				t.Fatal(err)
			}
			b, err := trace.Encode(g.gen(p))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("same parameters produced different traces")
			}
			p.Seed = 12
			c, err := trace.Encode(g.gen(p))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a, c) {
				t.Fatal("different seeds produced identical traces")
			}
		})
	}
}

// TestSynthReplayAndConvert runs each generator's output both ways: as
// a ReplayCore-driven machine and through the trace→program conversion.
// Both must complete, and both must issue every synthesized operation.
func TestSynthReplayAndConvert(t *testing.T) {
	for _, g := range synthGens {
		t.Run(g.name, func(t *testing.T) {
			tr := g.gen(trace.SynthParams{Cores: 2, OpsPerCore: 48, Seed: 5})
			wantLoads, wantStores := countLoadsStores(tr)
			cfg := config.Small(2)
			rep, err := system.Replay(cfg, tsocc.New(config.C12x3()), tr)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rep.Loads != wantLoads || rep.Stores != wantStores {
				t.Fatalf("replay issued ld=%d st=%d, want ld=%d st=%d",
					rep.Loads, rep.Stores, wantLoads, wantStores)
			}
			w := tr.Workload()
			run, err := system.Run(cfg, tsocc.New(config.C12x3()), w)
			if err != nil {
				t.Fatalf("converted workload: %v", err)
			}
			if run.Loads != wantLoads || run.Stores != wantStores {
				t.Fatalf("converted workload issued ld=%d st=%d, want ld=%d st=%d",
					run.Loads, run.Stores, wantLoads, wantStores)
			}
		})
	}
}

// TestSynthIndependentOfGOMAXPROCS: the generators write their streams
// concurrently, so the bytes must not depend on how many run at once —
// one at a time, the default, or more goroutines than cores — nor on
// whether cores outnumber workers.
func TestSynthIndependentOfGOMAXPROCS(t *testing.T) {
	encode := func(gen func(trace.SynthParams) *trace.Trace, p trace.SynthParams, procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		data, err := trace.Encode(gen(p))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, g := range synthGens {
		for _, cores := range []int{1, 3, 8, 64} {
			p := trace.SynthParams{Cores: cores, OpsPerCore: 300, Seed: 3}
			want := encode(g.gen, p, 1)
			for _, procs := range []int{runtime.GOMAXPROCS(0), 8} {
				if got := encode(g.gen, p, procs); !bytes.Equal(got, want) {
					t.Errorf("%s, %d cores: GOMAXPROCS %d wrote other bytes than GOMAXPROCS 1", g.name, cores, procs)
				}
			}
		}
	}
}

// TestSynthAssertPanicsInCaller: an op the builder refuses is a
// generator bug and panics — on the caller's goroutine, where it can be
// recovered, although the stream was written on another; and always
// core 0's, although every core fails. The message carries the package
// prefix once, not again from the builder's error.
func TestSynthAssertPanicsInCaller(t *testing.T) {
	for _, g := range synthGens {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			g.gen(trace.SynthParams{Cores: 8, OpsPerCore: 64, Seed: 1, MaxGap: math.MaxInt64})
			return "no panic"
		}()
		if !strings.HasPrefix(msg, "trace: generator produced an invalid stream: core 0: op ") ||
			strings.Count(msg, "trace: ") != 1 || !strings.Contains(msg, "outside [0, 2^62]") {
			t.Errorf("%s with MaxGap 2^63-1: recovered %q, want core 0's gap assert", g.name, msg)
		}
	}
}

// TestSynthRetainsOnlyItsBytes: a synthesized trace holds little more
// heap than its streams' bytes — the builder's Grow reservation (10 B
// an op against the 5-9.3 written) does not outlive Finish.
func TestSynthRetainsOnlyItsBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := trace.Zipf(trace.SynthParams{Cores: 8, OpsPerCore: 1 << 15, Seed: 1})
	runtime.GC()
	runtime.ReadMemStats(&after)
	size := 0
	for _, s := range tr.Streams {
		size += s.Ops.Size()
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(size) * 115 / 100; held > limit {
		t.Errorf("zipf trace holds %d heap bytes for %d bytes of streams; want <= %d", held, size, limit)
	}
	runtime.KeepAlive(tr)
}

// TestSynthParamsValidate pins the bounds: the largest accepted value
// of each field synthesizes a valid trace (the working set's last block
// still below the next region), one more is refused naming the field.
func TestSynthParamsValidate(t *testing.T) {
	const maxBlocks = 1 << 18 // 16 MiB of 64-byte blocks
	ok := []trace.SynthParams{
		{Cores: 2, OpsPerCore: 64, Blocks: maxBlocks, MaxGap: 1 << 62},
		{Cores: 256, OpsPerCore: 1 << 16},
		{Cores: 1, OpsPerCore: 1 << 24},
		{}, // every default
		{Cores: -1, OpsPerCore: -1, Blocks: -1, MaxGap: -1},
	}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	// Each pattern's region is the 16 MiB from its base.
	bases := map[string]uint64{"zipf": 0x2000_0000, "migratory": 0x2100_0000, "scan": 0x2200_0000}
	p := ok[0]
	p.OpsPerCore = 4096
	for _, g := range synthGens {
		for _, s := range g.gen(p).Streams {
			c := s.Ops.Cursor()
			for op, ok := c.Next(); ok; op, ok = c.Next() {
				if base := bases[g.name]; op.Kind.HasAddr() && (op.Addr < base || op.Addr >= base+1<<24) {
					t.Fatalf("%s: address %#x outside [%#x, %#x)", g.name, op.Addr, base, base+1<<24)
				}
			}
		}
	}
	for _, c := range []struct {
		p     trace.SynthParams
		field string
	}{
		{trace.SynthParams{Cores: 257}, "cores"},
		{trace.SynthParams{Cores: 256, OpsPerCore: 1<<16 + 1}, "ops"},
		{trace.SynthParams{OpsPerCore: math.MaxInt}, "ops"},
		{trace.SynthParams{Blocks: maxBlocks + 1}, "blocks"},
		{trace.SynthParams{MaxGap: 1<<62 + 1}, "maxgap"},
	} {
		var fe *trace.FormatError
		if err := c.p.Validate(); !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("%+v: got %v, want a FormatError naming %s", c.p, err, c.field)
		}
	}
}
