package trace_test

import (
	"bytes"
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
