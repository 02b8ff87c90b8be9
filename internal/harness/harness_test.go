package harness_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/mesi"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

func smallGrid(t *testing.T) *harness.Grid {
	t.Helper()
	cfg := config.Small(4)
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	protos := []system.Protocol{mesi.New(), tsocc.New(config.Basic()), tsocc.New(config.C12x3())}
	g, err := harness.RunGrid(cfg, p, protos, []string{"intruder", "x264", "ssca2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProtocolsListMatchesPaper(t *testing.T) {
	ps := harness.Protocols()
	want := []string{"MESI", "CC-shared-to-L2", "TSO-CC-4-basic", "TSO-CC-4-noreset",
		"TSO-CC-4-12-3", "TSO-CC-4-12-0", "TSO-CC-4-9-3"}
	if len(ps) != len(want) {
		t.Fatalf("protocol count = %d, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Fatalf("protocol %d = %s, want %s", i, p.Name(), want[i])
		}
	}
}

func TestRunGridFillsEveryCell(t *testing.T) {
	g := smallGrid(t)
	for _, b := range g.Benchmarks {
		for _, p := range g.Protocols {
			r := g.Get(b, p)
			if r == nil {
				t.Fatalf("missing cell %s/%s", b, p)
			}
			if r.Cycles <= 0 || r.Msgs <= 0 {
				t.Fatalf("degenerate result for %s/%s", b, p)
			}
		}
	}
}

func TestBaselineNormalization(t *testing.T) {
	g := smallGrid(t)
	f3 := g.Figure3().String()
	// The MESI column must be exactly 1.000 on every benchmark row.
	for _, line := range strings.Split(f3, "\n") {
		for _, b := range g.Benchmarks {
			if strings.HasPrefix(line, b) {
				if !strings.Contains(line, "1.000") {
					t.Fatalf("row lacks MESI=1.000: %q", line)
				}
			}
		}
	}
}

func TestAllFiguresRender(t *testing.T) {
	g := smallGrid(t)
	figs := map[string]string{
		"Figure 3": g.Figure3().String(),
		"Figure 4": g.Figure4().String(),
		"Figure 5": g.Figure5().String(),
		"Figure 6": g.Figure6().String(),
		"Figure 7": g.Figure7().String(),
		"Figure 8": g.Figure8().String(),
		"Figure 9": g.Figure9().String(),
	}
	for name, out := range figs {
		if !strings.Contains(out, name) {
			t.Fatalf("%s missing title:\n%s", name, out)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
			t.Fatalf("%s has no data rows:\n%s", name, out)
		}
	}
	// Figures 7 and 9 must exclude MESI and CC-shared-to-L2 columns.
	if strings.Contains(figs["Figure 7"], "MESI") {
		t.Fatal("Figure 7 should not include MESI")
	}
}

func TestGmeanRowPresent(t *testing.T) {
	g := smallGrid(t)
	if !strings.Contains(g.Figure3().String(), "gmean") {
		t.Fatal("Figure 3 missing gmean row")
	}
}

func TestSummaryHighlights(t *testing.T) {
	g := smallGrid(t)
	s := g.SummaryHighlights()
	if !strings.Contains(s, "gmean") {
		t.Fatalf("highlights: %s", s)
	}
}

func TestUnknownBenchmarkFails(t *testing.T) {
	cfg := config.Small(2)
	p := workloads.Params{Threads: 2, Scale: 1, Seed: 1}
	_, err := harness.RunGrid(cfg, p, []system.Protocol{mesi.New()}, []string{"nope"}, nil)
	if err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestBadCoresRejectedBeforeGeneration: workload generators size their
// slices from the thread count and panic on a non-positive one, so a
// bad core count must be turned into a usage error wrapping
// config.Validate's, naming the field, before any generator runs, both for a single workload
// (Gen) and for a grid (RunGrid). Generators run a scale below 1 as
// scale 1, so a bad scale must be refused the same way rather than
// labelled with a size that did not run.
func TestBadCoresRejectedBeforeGeneration(t *testing.T) {
	e := workloads.ByName("x264")
	for _, tc := range []struct {
		cores, scale int
		field        string
	}{
		{-3, 1, "cores"}, {0, 1, "cores"},
		{4, 0, "scale"}, {4, -2, "scale"},
	} {
		cfg := config.Scaled(tc.cores)
		if w, err := harness.Gen(cfg, e, tc.scale, 1); !errors.As(err, new(harness.UsageError)) || w != nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Gen at %d cores, scale %d: workload %v, error %v; want a usage error naming %s",
				tc.cores, tc.scale, w, err, tc.field)
		}
		p := workloads.Params{Threads: tc.cores, Scale: tc.scale, Seed: 1}
		if _, err := harness.RunGrid(cfg, p, nil, []string{"x264"}, nil); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("RunGrid at %d cores, scale %d: error %v; want one naming %s", tc.cores, tc.scale, err, tc.field)
		}
	}
	w, err := harness.Gen(config.Small(4), e, 1, 1)
	if err != nil || len(w.Programs) != 4 {
		t.Fatalf("Gen at 4 cores: %v, %v", w, err)
	}
}
