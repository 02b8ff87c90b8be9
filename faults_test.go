// Fault-injection conformance gates: the fifth conformance axis next to
// the engine-mode, batched-core, litmus A/B and trace-replay gates. A
// fixed (profile, seed) fault stream must be bit-identical across
// engine mode × core batching × trace record/replay, and randomized
// fault sweeps must pass every runtime invariant oracle on every
// registered protocol.
package repro_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/litmus"
	"repro/internal/mesi"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// faultProfiles are the built-in profile specs exercised by the
// conformance gates: every single profile plus a composite spec, so
// profile composition rides through the same bit-identity axes.
var faultProfiles = []string{
	"jitter", "pressure", "burst",
	"evict", "reset-storm", "victim",
	"jitter:rate=200+evict:rate=80",
}

// TestFaultModesBitIdentical: for every profile, the injected run is a
// pure function of (profile, seed) — identical fingerprints across both
// time-advancement modes, both core models, and a record → replay round
// trip.
func TestFaultModesBitIdentical(t *testing.T) {
	// The TSO-CC leg uses the timestamped flagship preset so reset-storm
	// actually fires (timestamp-free presets never consult the hook).
	protos := []system.Protocol{mesi.New(), tsocc.New(config.C12x3())}
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	for _, proto := range protos {
		for _, prof := range faultProfiles {
			t.Run(proto.Name()+"/"+prof, func(t *testing.T) {
				e := workloads.ByName("ssca2")
				mkCfg := func() config.System {
					cfg := config.Small(4)
					cfg.FaultProfile = prof
					cfg.FaultSeed = 7
					return cfg
				}
				fps := make([]string, len(engineModes))
				for i, mode := range engineModes {
					cfg := mkCfg()
					cfg.PerCycleEngine = mode.perCycle
					cfg.BatchedCore = mode.batched
					r, err := system.Run(cfg, proto, e.Gen(p))
					if err != nil {
						t.Fatalf("%s: %v", mode.name, err)
					}
					if r.CheckErr != nil {
						t.Fatalf("%s: functional check: %v", mode.name, r.CheckErr)
					}
					fps[i] = fingerprint(r)
				}
				for i := 1; i < len(fps); i++ {
					if fps[i] != fps[0] {
						t.Fatalf("fault-injected engine modes diverged:\n %s: %s\n %s: %s",
							engineModes[0].name, fps[0], engineModes[i].name, fps[i])
					}
				}

				// Record under faults, replay under the same faults: the
				// trace axis must hold with injection active too.
				res, tr, err := system.RunRecorded(mkCfg(), proto, e.Gen(p), p.Seed)
				if err != nil {
					t.Fatalf("record: %v", err)
				}
				if fp := fingerprint(res); fp != fps[0] {
					t.Fatalf("recording perturbed the faulted run:\n base: %s\n rec:  %s", fps[0], fp)
				}
				rep, err := system.Replay(tr.Meta.Sys, proto, tr)
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if fp := fingerprint(rep); fp != fps[0] {
					t.Fatalf("faulted replay diverged:\n base:   %s\n replay: %s", fps[0], fp)
				}
			})
		}
	}
}

// probeProfiles are the profiles delivered through coherence.Probe
// fields (EvictFault, ResetFault, AckDelay) rather than the mesh or the
// core port: a protocol that never consults a field silently ignores
// its profile.
var probeProfiles = []string{"evict", "reset-storm", "victim"}

// TestFaultDifferentSeedsDiverge checks that every Probe field is
// consulted where it should be and nowhere else. For every registered
// protocol, each probe-delivered profile must perturb the run relative
// to the nominal (fault-free) execution for at least one of five seeds
// — except reset-storm on a protocol without timestamps, which has no
// timestamp assignment to consult the hook from and must stay
// bit-identical to the nominal run on all five. The flagship preset
// additionally rides the mesh/port profiles and the composite spec.
func TestFaultDifferentSeedsDiverge(t *testing.T) {
	e := workloads.ByName("ssca2")
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	flagship := config.C12x3().Name()
	for _, proto := range coherence.Protocols() {
		timestamps := false
		if tp, ok := proto.(tsocc.Protocol); ok {
			timestamps = tp.Cfg.Timestamps()
		}
		profiles := probeProfiles
		if proto.Name() == flagship {
			profiles = faultProfiles
		}
		base, err := system.Run(config.Small(4), proto, e.Gen(p))
		if err != nil {
			t.Fatal(err)
		}
		baseFP := fingerprint(base)
		for _, prof := range profiles {
			inert := prof == "reset-storm" && !timestamps
			diverged := 0
			for seed := uint64(1); seed <= 5 && (inert || diverged == 0); seed++ {
				cfg := config.Small(4)
				cfg.FaultProfile = prof
				cfg.FaultSeed = seed
				r, err := system.Run(cfg, proto, e.Gen(p))
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", proto.Name(), prof, seed, err)
				}
				if fingerprint(r) != baseFP {
					diverged++
				}
			}
			switch {
			case inert && diverged != 0:
				t.Errorf("%s/%s: %d of five seeds diverged from the nominal run — a protocol without timestamps consulted ResetFault",
					proto.Name(), prof, diverged)
			case !inert && diverged == 0:
				t.Errorf("%s/%s: five seeds all matched the nominal run — injection inert?", proto.Name(), prof)
			}
		}
	}
}

// TestFaultSweepOracles is the randomized robustness gate: ≥20 seeds ×
// every profile × every registered protocol, with the runtime invariant
// oracles armed. Any SWMR, data-value, ordering, or functional-check
// violation — or a deadlock — fails the sweep.
func TestFaultSweepOracles(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	e := workloads.ByName("ssca2")
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 2}
	for _, proto := range coherence.Protocols() {
		for _, prof := range faultProfiles {
			t.Run(proto.Name()+"/"+prof, func(t *testing.T) {
				for seed := 1; seed <= seeds; seed++ {
					cfg := config.Small(4)
					cfg.FaultProfile = prof
					cfg.FaultSeed = uint64(seed)
					cfg.Checks = true
					r, err := system.Run(cfg, proto, e.Gen(p))
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if r.CheckErr != nil {
						t.Fatalf("seed %d: functional check: %v", seed, r.CheckErr)
					}
				}
			})
		}
	}
}

// TestLitmusUnderFaults runs the full litmus suite under every fault
// profile on every registered protocol: injected timing must never
// produce a TSO-forbidden outcome.
func TestLitmusUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted litmus sweep is slow")
	}
	for _, proto := range coherence.Protocols() {
		for _, prof := range faultProfiles {
			t.Run(proto.Name()+"/"+prof, func(t *testing.T) {
				cfg := config.Small(4)
				cfg.FaultProfile = prof
				cfg.FaultSeed = 3
				cfg.Checks = true
				for _, test := range litmus.Suite() {
					res, err := litmus.Run(test, proto, cfg, 15, 42)
					if err != nil {
						t.Fatalf("%s: %v", test.Name, err)
					}
					if !res.Ok() {
						t.Fatalf("%s: TSO violation under %s faults: %v",
							test.Name, prof, res.Violations)
					}
				}
			})
		}
	}
}

// FuzzFaultProfile: arbitrary profile parameters must never break
// determinism (per-cycle vs wake-set bit-identity) or trip the oracles
// on the MESI baseline. Parse clamps out-of-range values, so any
// syntactically valid spec is a legal configuration.
func FuzzFaultProfile(f *testing.F) {
	f.Add("jitter", uint64(1))
	f.Add("jitter:rate=1000,delay=64", uint64(2))
	f.Add("pressure:rate=900,cap=1", uint64(3))
	f.Add("burst:rate=1000,delay=32,window=2", uint64(4))
	f.Add("evict:rate=120", uint64(5))
	f.Add("reset-storm:rate=200", uint64(6))
	f.Add("victim:rate=500,delay=8", uint64(7))
	f.Add("jitter:rate=300+evict:rate=100", uint64(8))
	f.Add("burst,rate=400,victim,delay=3,reset-storm", uint64(9))
	proto := mesi.New()
	e := workloads.ByName("ssca2")
	p := workloads.Params{Threads: 2, Scale: 1, Seed: 1}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		if _, err := faults.Parse(spec); err != nil {
			t.Skip()
		}
		fps := [2]string{}
		for i, perCycle := range []bool{true, false} {
			cfg := config.Small(2)
			cfg.PerCycleEngine = perCycle
			cfg.FaultProfile = spec
			cfg.FaultSeed = seed
			cfg.Checks = true
			r, err := system.Run(cfg, proto, e.Gen(p))
			if err != nil {
				t.Fatalf("perCycle=%v: %v", perCycle, err)
			}
			if r.CheckErr != nil {
				t.Fatalf("perCycle=%v: functional check: %v", perCycle, r.CheckErr)
			}
			fps[i] = fingerprint(r)
		}
		if fps[0] != fps[1] {
			t.Fatalf("spec %q seed %d diverged across engines:\n %s\n %s", spec, seed, fps[0], fps[1])
		}
	})
}
