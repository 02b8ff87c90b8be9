package repro_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// TestScale64Conformance extends every conformance axis to a 64-core
// machine: engine mode, batched core, runtime checks, and observability
// must all reproduce the per-cycle unbatched reference bit for bit on a
// 8x8 mesh, where the per-link contention model and the wide sharing
// vector operate far outside the 4-core geometry the per-axis suites
// use. One
// workload per real benchmark keeps the sweep bounded; the axes
// themselves are each exhaustively crossed at 4 cores elsewhere.
func TestScale64Conformance(t *testing.T) {
	proto := func() system.Protocol { return tsocc.New(config.C12x3()) }
	p := workloads.Params{Threads: 64, Scale: 1, Seed: 1}
	variants := []struct {
		name     string
		perCycle bool
		batched  bool
		checks   bool
		observed bool
	}{
		{name: "per-cycle/unbatched", perCycle: true}, // reference
		{name: "per-cycle/batched", perCycle: true, batched: true},
		{name: "event/unbatched"},
		{name: "event/batched", batched: true},
		{name: "event/batched/checks", batched: true, checks: true},
		{name: "event/batched/obs", batched: true, observed: true},
	}
	for _, bench := range []string{"canneal", "ssca2"} {
		t.Run(bench, func(t *testing.T) {
			e := workloads.ByName(bench)
			if e == nil {
				t.Fatalf("unknown benchmark %q", bench)
			}
			want := ""
			for _, v := range variants {
				cfg := config.Small(64)
				cfg.PerCycleEngine = v.perCycle
				cfg.BatchedCore = v.batched
				cfg.Checks = v.checks
				if v.observed {
					cfg.Obs = &obs.Obs{Metrics: obs.NewRegistry(), Timeline: obs.NewTimeline()}
				}
				r, err := system.Run(cfg, proto(), e.Gen(p))
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if r.CheckErr != nil {
					t.Fatalf("%s: functional check: %v", v.name, r.CheckErr)
				}
				fp := fingerprint(r)
				if want == "" {
					want = fp
					continue
				}
				if fp != want {
					t.Fatalf("%s diverged at 64 cores:\n reference: %s\n variant:   %s",
						v.name, want, fp)
				}
			}
		})
	}
}

// TestScale64FaultModesBitIdentical crosses the fault-injection axis
// with the 64-core machine: an injected run on the per-cycle engine
// must reproduce the wake-set injected run exactly. The injector's
// decision streams are per-(src,dst)-pair and per-tile, so the wider
// mesh must not perturb them.
func TestScale64FaultModesBitIdentical(t *testing.T) {
	proto := tsocc.New(config.C12x3())
	e := workloads.ByName("ssca2")
	p := workloads.Params{Threads: 64, Scale: 1, Seed: 1}
	cfg := config.Small(64)
	cfg.FaultProfile = "jitter+evict"
	cfg.FaultSeed = 7
	ref, err := system.Run(cfg, proto, e.Gen(p))
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	want := fingerprint(ref)
	cfg.PerCycleEngine = true
	r, err := system.Run(cfg, tsocc.New(config.C12x3()), e.Gen(p))
	if err != nil {
		t.Fatalf("per-cycle: %v", err)
	}
	if got := fingerprint(r); got != want {
		t.Fatalf("per-cycle run diverged under faults at 64 cores:\n wake-set:  %s\n per-cycle: %s",
			want, got)
	}
}

// TestScale64TraceReplayBitIdentical closes the trace axis at 64
// cores: a recorded trace replays to the recording run's fingerprint.
func TestScale64TraceReplayBitIdentical(t *testing.T) {
	e := workloads.ByName("canneal")
	w := e.Gen(workloads.Params{Threads: 64, Scale: 1, Seed: 3})
	res, tr, err := system.RunRecorded(config.Small(64), tsocc.New(config.C12x3()), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(res)
	got, err := system.Replay(config.Small(64), tsocc.New(config.C12x3()), tr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if fp := fingerprint(got); fp != want {
		t.Fatalf("replay diverged at 64 cores:\n recorded: %s\n replayed: %s", want, fp)
	}
}
