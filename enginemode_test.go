package repro_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/litmus"
	"repro/internal/mesi"
	"repro/internal/program"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// fingerprint flattens every simulation-visible quantity of a Result
// into a comparable string. Mem (a pointer) and CheckErr are reduced to
// their observable content.
func fingerprint(r *system.Result) string {
	check := "<nil>"
	if r.CheckErr != nil {
		check = r.CheckErr.Error()
	}
	return fmt.Sprintf(
		"proto=%s wl=%s cycles=%d msgs=%d flits=%d hops=%d data=%d ctrl=%d "+
			"ld=%d st=%d rmw=%d fence=%d instr=%d "+
			"acc=%d miss=%d selfinv=%d selfinvlines=%d datarsp=%d rmwlat=%.6f "+
			"hitS=%d hitSRO=%d hitP=%d whit=%d invrecv=%d tsresets=%d "+
			"sro=%d decay=%d bcast=%d l2rs=%d poollive=%d txlive=%d check=%s",
		r.Protocol, r.Workload, r.Cycles, r.Msgs, r.Flits, r.FlitHops, r.DataFlits, r.CtrlFlits,
		r.Loads, r.Stores, r.RMWs, r.Fences, r.Instructions,
		r.L1.Accesses(), r.L1.Misses(), r.L1.SelfInvTotal(), r.L1.SelfInvLines.Value(),
		r.L1.DataResponses.Value(), r.L1.MeanRMWLatency(),
		r.L1.ReadHitShared.Value(), r.L1.ReadHitSRO.Value(), r.L1.ReadHitPrivate.Value(),
		r.L1.WriteHitPrivate.Value(), r.L1.InvalidationsReceived.Value(), r.L1.TimestampResets.Value(),
		r.SROTransitions, r.DecayEvents, r.SROInvBcasts, r.L2TSResets, r.PoolLive, r.TxLive, check)
}

// engineModes is the A/B conformance cross: both time-advancement modes
// crossed against both core execution models. Every combination must
// produce bit-identical results; index 0 (per-cycle, unbatched) is the
// reference.
var engineModes = []struct {
	name     string
	perCycle bool
	batched  bool
}{
	{"per-cycle/unbatched", true, false},
	{"per-cycle/batched", true, true},
	{"event/unbatched", false, false},
	{"event/batched", false, true},
}

// TestEngineModesBitIdentical is the tentpole conformance gate: the
// event-driven (idle-skip) engine and the batched core model must
// reproduce the per-cycle, instruction-at-a-time ticker's results bit
// for bit — identical cycle counts and identical statistics — across
// protocols and workloads, in every mode combination.
func TestEngineModesBitIdentical(t *testing.T) {
	protos := []system.Protocol{
		mesi.New(),
		tsocc.New(config.Basic()),
		tsocc.New(config.C12x3()),
		tsocc.New(config.CCSharedToL2()),
	}
	benches := []string{"canneal", "x264", "ssca2", "lu-noncont"}
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	for _, proto := range protos {
		for _, bench := range benches {
			t.Run(proto.Name()+"/"+bench, func(t *testing.T) {
				e := workloads.ByName(bench)
				if e == nil {
					t.Fatalf("unknown benchmark %q", bench)
				}
				fps := make([]string, len(engineModes))
				for i, mode := range engineModes {
					cfg := config.Small(4)
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
						t.Fatalf("engine modes diverged:\n %s: %s\n %s: %s",
							engineModes[0].name, fps[0], engineModes[i].name, fps[i])
					}
				}
			})
		}
	}
}

// TestEngineModesLitmusIdentical runs the full litmus suite under both
// engine modes and requires identical outcome histograms (not merely
// "no violations": the exact multiset of observed outcomes must match).
func TestEngineModesLitmusIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("litmus A/B sweep is slow")
	}
	protos := []system.Protocol{mesi.New(), tsocc.New(config.C12x3())}
	for _, proto := range protos {
		for _, test := range litmus.Suite() {
			t.Run(proto.Name()+"/"+test.Name, func(t *testing.T) {
				outcomes := make([]map[string]int, len(engineModes))
				for i, mode := range engineModes {
					cfg := config.Small(4)
					cfg.PerCycleEngine = mode.perCycle
					cfg.BatchedCore = mode.batched
					res, err := litmus.Run(test, proto, cfg, 20, 42)
					if err != nil {
						t.Fatalf("%s: %v", mode.name, err)
					}
					if !res.Ok() {
						t.Fatalf("%s: forbidden outcomes: %v", mode.name, res.Violations)
					}
					outcomes[i] = res.Outcomes
				}
				for i := 1; i < len(outcomes); i++ {
					if !reflect.DeepEqual(outcomes[0], outcomes[i]) {
						t.Fatalf("litmus outcome histograms diverged:\n %s: %v\n %s: %v",
							engineModes[0].name, outcomes[0], engineModes[i].name, outcomes[i])
					}
				}
			})
		}
	}
}

// TestEngineModesDenseComputeIdentical pins the workload the batched
// core model targets: long straight-line ALU runs where nothing is
// idle. The checksum check inside the workload already proves the
// register semantics; this gate additionally proves the cycle counts
// and stats are untouched by batching.
func TestEngineModesDenseComputeIdentical(t *testing.T) {
	fps := make([]string, len(engineModes))
	for i, mode := range engineModes {
		cfg := config.Small(4)
		cfg.PerCycleEngine = mode.perCycle
		cfg.BatchedCore = mode.batched
		w := workloads.DenseCompute(workloads.Params{Threads: 4, Scale: 1, Seed: 7})
		r, err := system.Run(cfg, tsocc.New(config.C12x3()), w)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if r.CheckErr != nil {
			t.Fatalf("%s: checksum: %v", mode.name, r.CheckErr)
		}
		fps[i] = fingerprint(r)
	}
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatalf("dense-compute diverged:\n %s: %s\n %s: %s",
				engineModes[0].name, fps[0], engineModes[i].name, fps[i])
		}
	}
}

// TestEngineModesSpinlockIdentical covers the contended-RMW path (the
// spinlock example's shape) plus write-buffer pressure.
func TestEngineModesSpinlockIdentical(t *testing.T) {
	fps := make([]string, len(engineModes))
	for i, mode := range engineModes {
		cfg := config.Scaled(4)
		cfg.PerCycleEngine = mode.perCycle
		cfg.BatchedCore = mode.batched
		w := spinWorkload(4, 40)
		r, err := system.Run(cfg, tsocc.New(config.C12x3()), w)
		if err != nil {
			t.Fatal(err)
		}
		if r.CheckErr != nil {
			t.Fatal(r.CheckErr)
		}
		fps[i] = fingerprint(r)
	}
	for i := 1; i < len(fps); i++ {
		if fps[i] != fps[0] {
			t.Fatalf("spinlock diverged:\n %s: %s\n %s: %s",
				engineModes[0].name, fps[0], engineModes[i].name, fps[i])
		}
	}
}

// TestEngineModesFarHitCompletions: with an L1 hit latency past the
// wake-set engine's 64-slot due wheel, every hit completion is filed in
// the far set and pulled into the ring as the clock reaches it. Per-cycle
// and wake-set runs must agree bit for bit on ssca2 and on a chain of
// load hits, and the chain must take the full latency per hit.
func TestEngineModesFarHitCompletions(t *testing.T) {
	const hitLat, hits = 70, 20
	hitChain := func() *program.Workload {
		chain := program.NewBuilder("hit-chain")
		chain.Li(1, 0x1000)
		for i := 0; i < hits+1; i++ { // one miss, then hits
			chain.Ld(2, 1, 0)
		}
		chain.Halt()
		return &program.Workload{Name: "hit-chain", Programs: []*program.Program{chain.MustBuild()}}
	}
	ssca2 := func() *program.Workload {
		return workloads.ByName("ssca2").Gen(workloads.Params{Threads: 4, Scale: 1, Seed: 1})
	}
	modes := []struct {
		name     string
		perCycle bool
	}{{"per-cycle", true}, {"event", false}}
	for _, proto := range []system.Protocol{mesi.New(), tsocc.New(config.C12x3())} {
		for _, gen := range []func() *program.Workload{ssca2, hitChain} {
			name := gen().Name
			t.Run(proto.Name()+"/"+name, func(t *testing.T) {
				fps := make([]string, len(modes))
				for i, mode := range modes {
					cfg := config.Small(4)
					cfg.L1HitLat = hitLat
					cfg.PerCycleEngine = mode.perCycle
					r, err := system.Run(cfg, proto, gen())
					if err != nil {
						t.Fatalf("%s: %v", mode.name, err)
					}
					if r.CheckErr != nil {
						t.Fatalf("%s: functional check: %v", mode.name, r.CheckErr)
					}
					if name == "hit-chain" && r.Cycles < hits*hitLat {
						t.Fatalf("%s: %d load hits took %d cycles, want at least %d", mode.name, hits, r.Cycles, hits*hitLat)
					}
					fps[i] = fingerprint(r)
				}
				for i := 1; i < len(fps); i++ {
					if fps[i] != fps[0] {
						t.Fatalf("far hit completions diverged:\n %s: %s\n %s: %s",
							modes[0].name, fps[0], modes[i].name, fps[i])
					}
				}
			})
		}
	}
}
