package repro_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/mesi"
	"repro/internal/obs"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// TestObsOnOffBitIdentical is the no-perturbation gate for the
// observability layer: arming the full metrics registry and timeline
// sink must leave every simulation-visible quantity bit-identical to
// an unobserved run, across engine mode × batched core, on both
// protocol families. Observation reads simulation state and
// writes only obs-owned storage; any divergence here means a hook leaked
// a value back into scheduling, protocol, or timing. Each cell runs
// twice: shards1 leaves config.System.Shards at its default, shards4
// sets the deprecated field (the benchmark still assigns it), which
// every machine ignores, so the shards4 runs must also reproduce the
// shards1 runs.
func TestObsOnOffBitIdentical(t *testing.T) {
	protos := []system.Protocol{
		mesi.New(),
		tsocc.New(config.C12x3()),
	}
	benches := []string{"canneal", "x264"}
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	for _, proto := range protos {
		for _, bench := range benches {
			e := workloads.ByName(bench)
			if e == nil {
				t.Fatalf("unknown benchmark %q", bench)
			}
			for _, mode := range engineModes {
				var serial string // the shards1 cell's fingerprint
				for _, shards := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/%s/shards%d", proto.Name(), bench, mode.name, shards)
					t.Run(name, func(t *testing.T) {
						var fps [2]string
						for i, observed := range []bool{false, true} {
							cfg := config.Small(4)
							cfg.PerCycleEngine = mode.perCycle
							cfg.BatchedCore = mode.batched
							cfg.Shards = shards
							if observed {
								cfg.Obs = &obs.Obs{
									Metrics:  obs.NewRegistry(),
									Timeline: obs.NewTimeline(),
								}
							}
							r, err := system.Run(cfg, proto, e.Gen(p))
							if err != nil {
								t.Fatalf("obs=%v: %v", observed, err)
							}
							if r.CheckErr != nil {
								t.Fatalf("obs=%v: functional check: %v", observed, r.CheckErr)
							}
							fps[i] = fingerprint(r)
						}
						if fps[1] != fps[0] {
							t.Fatalf("observation perturbed the run:\n off: %s\n on:  %s", fps[0], fps[1])
						}
						if shards == 1 {
							serial = fps[0]
						} else if fps[0] != serial {
							t.Fatalf("Shards=%d changed the run:\n shards1: %s\n shards%d: %s",
								shards, serial, shards, fps[0])
						}
					})
				}
			}
		}
	}
}

// TestNoUnnamedCounters builds observed machines of every flavor
// (both protocol families, with and without the deprecated Shards
// field set, program and replay frontends) and asserts that every
// counter registered with the metrics registry carries a name — an
// unnamed series would silently merge into the "" key of every dump.
func TestNoUnnamedCounters(t *testing.T) {
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	w := workloads.ByName("canneal")
	if w == nil {
		t.Fatal("canneal workload missing")
	}

	checkReg := func(t *testing.T, reg *obs.Registry) {
		t.Helper()
		names := reg.CounterNames()
		if len(names) == 0 {
			t.Fatal("no counters registered at all")
		}
		for i, n := range names {
			if n == "" {
				t.Errorf("registered counter %d has no name", i)
			}
		}
	}

	for _, proto := range []system.Protocol{mesi.New(), tsocc.New(config.C12x3())} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", proto.Name(), shards), func(t *testing.T) {
				cfg := config.Small(4)
				cfg.Shards = shards
				reg := obs.NewRegistry()
				cfg.Obs = &obs.Obs{Metrics: reg}
				if _, err := system.NewMachine(cfg, proto, w.Gen(p)); err != nil {
					t.Fatal(err)
				}
				checkReg(t, reg)
			})
		}
	}

	// The replay leg also pins counter parity: program cores and replay
	// cores are one front end, so each replay<N> registers exactly the
	// counter suffixes core<N> did in the run it was recorded from.
	t.Run("replay", func(t *testing.T) {
		proto := tsocc.New(config.C12x3())
		cfg := config.Small(4)
		recReg := obs.NewRegistry()
		cfg.Obs = &obs.Obs{Metrics: recReg}
		_, tr, err := system.RunRecorded(cfg, proto, w.Gen(p), 1)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cfg.Obs = &obs.Obs{Metrics: reg}
		if _, err := newReplayMachine(cfg, proto, tr); err != nil {
			t.Fatal(err)
		}
		checkReg(t, reg)
		rec, rep := frontSuffixes(recReg, "core"), frontSuffixes(reg, "replay")
		if len(rec) == 0 || fmt.Sprint(rec) != fmt.Sprint(rep) {
			t.Fatalf("front-end counters differ:\n recorded: %v\n replay:   %v", rec, rep)
		}
	})
}

// frontSuffixes groups the registry's "<prefix><N>.<suffix>" counter
// names by front end N, suffixes in registration order.
func frontSuffixes(reg *obs.Registry, prefix string) map[int][]string {
	out := map[int][]string{}
	for _, name := range reg.CounterNames() {
		rest, ok := strings.CutPrefix(name, prefix)
		id, suffix, dotted := strings.Cut(rest, ".")
		n, err := strconv.Atoi(id)
		if ok && dotted && err == nil {
			out[n] = append(out[n], suffix)
		}
	}
	return out
}

// newReplayMachine keeps the test body readable.
func newReplayMachine(cfg config.System, proto system.Protocol, tr *trace.Trace) (*system.Machine, error) {
	return system.NewReplayMachine(cfg, proto, tr)
}
