// The conformance table: one run gives the same fingerprint however it
// is executed. Each row crosses a geometry's protocols × workloads (or
// litmus tests) × fault specs with cells, and each cell is a position on
// the other six axes (engine, core, trace, checks, obs, concurrency)
// that must reproduce a fixed reference:
//
//   - a live or recording run, the reference: the same program run
//     once, sequentially, on the default machine (wake-set engine,
//     batched core, no checks, no obs) under the same faults;
//   - a replay, the recording run (which a record cell holds to the
//     reference);
//   - a litmus cell, the reference's outcome histogram.
//
// Each copy of a concurrent cell is held to the same. Each reference is
// computed once per key and shared by every row.
package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"

	_ "repro/internal/mesi" // registers MESI
)

// fingerprint flattens every simulation-visible quantity of a Result
// into a comparable string; CheckErr is reduced to its message.
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

// cell is one position on the axes.
type cell struct {
	name     string
	perCycle bool // engine: the per-cycle referee, else the wake-set engine
	batched  bool // core: batched straight-line runs, else one instruction per tick
	record   bool // trace: capture the run, as the recording does
	replay   bool // trace: replay the recording through trace.ReplayCore
	checks   bool // runtime invariant oracles armed
	obs      bool // metrics registry and timeline armed
	copies   int  // machines run at once, sharing one protocol value (0: one)
	shards   int  // the deprecated config.System.Shards, which every machine ignores
}

// modes crosses the engine axis with the core axis.
var modes = []cell{
	{name: "per-cycle/unbatched", perCycle: true},
	{name: "per-cycle/batched", perCycle: true, batched: true},
	{name: "event/unbatched"},
	{name: "event/batched", batched: true},
}

// stepped differs from the default machine on the engine axis alone,
// and deflt is the default machine every reference runs on.
var stepped, deflt = modes[1], modes[3]

// recorder records on the default machine, and replayCell replays on it.
var recorder, replayCell = deflt.with("record/%s", recorded), deflt.with("replay/%s", replayed)

// faultSpecs are the fault axis: every profile and a composite spec.
var faultSpecs = []string{"jitter", "pressure", "burst", "evict", "reset-storm", "victim", "jitter:rate=200+evict:rate=80"}

const faultSeed = 7

// shardings are the values the benchmark gives the deprecated Shards
// field; the field stays in the table while the benchmark sets it.
var shardings = []int{1, 4}

// copies is how many machines a concurrent cell runs at once, as RunGrid
// does: state they share shows up as a diverged copy or a -race report.
const copies = 3

// with renames c by format (%s is its name) and applies sets.
func (c cell) with(format string, sets ...func(*cell)) cell {
	c.name = fmt.Sprintf(format, c.name)
	for _, set := range sets {
		set(&c)
	}
	return c
}

// derive applies with to each of cs.
func derive(cs []cell, format string, sets ...func(*cell)) []cell {
	out := make([]cell, len(cs))
	for i, c := range cs {
		out[i] = c.with(format, sets...)
	}
	return out
}

func recorded(c *cell)   { c.record = true }
func replayed(c *cell)   { c.replay = true }
func armChecks(c *cell)  { c.checks = true }
func armObs(c *cell)     { c.obs = true }
func concurrent(c *cell) { c.copies = copies }

// checked arms the oracles on the two engines, both batched.
var checked = derive([]cell{stepped, deflt}, "%s/checks", armChecks)

// observed arms obs on every mode, with and without Shards set.
func observed() []cell {
	var out []cell
	for _, s := range shardings {
		out = append(out, derive(modes, "%s/shards"+strconv.Itoa(s), armObs, func(c *cell) { c.shards = s })...)
	}
	return out
}

// row is one line of the table: protocols (nil = every registered one)
// × loads × faults (nil = none) on geom, each crossed with every cell.
// When litmus > 0, loads are litmus tests (nil = the whole suite) run
// litmus iterations each.
type row struct {
	geom          string
	protos, loads []string
	litmus        int
	faults        []string
	cells         []cell
	slow          bool // skipped under -short
}

const mesiName, flagship = "MESI", "TSO-CC-4-12-3"

// families are the protocol families the cheaper rows run: MESI, the
// basic and the flagship TSO-CC, and CC-shared-to-L2.
var families = []string{mesiName, "TSO-CC-4-basic", flagship, "CC-shared-to-L2"}

// table is keyed by the test that runs the row.
var table = map[string]row{
	// Engine × core on benchmarks, straight-line ALU runs, contended RMWs
	// with write-buffer pressure, hit latency past the 64-slot due wheel,
	// and the litmus suite.
	"TestEngineModesBitIdentical":          {geom: "small4", protos: families, loads: []string{"canneal", "x264", "ssca2", "lu-noncont"}, cells: modes},
	"TestEngineModesDenseComputeIdentical": {geom: "small4", protos: []string{flagship}, loads: []string{"dense-compute@7"}, cells: modes},
	"TestEngineModesSpinlockIdentical":     {geom: "scaled4", protos: []string{flagship}, loads: []string{"spinlock"}, cells: modes},
	"TestEngineModesFarHitCompletions":     {geom: "far-hit", protos: []string{mesiName, flagship}, loads: []string{"ssca2", "hit-chain"}, cells: []cell{stepped}},
	"TestEngineModesLitmusIdentical":       {geom: "small4", protos: []string{mesiName, flagship}, litmus: 20, cells: modes, slow: true},

	// Faults: an injected run is a pure function of (profile, seed).
	// The flagship preset has timestamps, so reset-storm fires.
	"TestFaultModesBitIdentical":        {geom: "small4", protos: []string{mesiName, flagship}, loads: []string{"ssca2"}, faults: faultSpecs, cells: slices.Concat(modes, []cell{recorder, replayCell})},
	"TestScale64FaultModesBitIdentical": {geom: "small64", protos: []string{flagship}, loads: []string{"ssca2"}, faults: []string{"jitter+evict"}, cells: []cell{stepped}},

	// Trace: recording captures the same bytes in every mode; replays
	// reproduce the recording run in every mode and with checks or obs.
	"TestTraceReplayBitIdentical": {geom: "small4", loads: []string{"x264", "ssca2"}, cells: slices.Concat(
		derive(modes, "record/%s", recorded), derive(modes, "replay/%s", replayed),
		[]cell{deflt.with("replay/%s/checks", replayed, armChecks), deflt.with("replay/%s/obs", replayed, armObs)})},
	"TestScale64TraceReplayBitIdentical": {geom: "small64", protos: []string{flagship}, loads: []string{"canneal@3"}, cells: []cell{replayCell}},

	// Checks and obs only read the simulation: arming either leaves
	// every fingerprint as it was, and so does the deprecated Shards.
	"TestChecksBitIdentical":   {geom: "small4", loads: []string{"x264", "ssca2"}, cells: checked[1:]},
	"TestObsOnOffBitIdentical": {geom: "small4", protos: []string{mesiName, flagship}, loads: []string{"canneal", "x264"}, cells: observed()},
	"TestScale64Conformance": {geom: "small64", protos: []string{flagship}, loads: []string{"canneal", "ssca2"}, cells: slices.Concat(modes,
		[]cell{deflt.with("%s/checks", armChecks), deflt.with("%s/obs", armObs)})},

	// Concurrency: machines run at once as RunGrid runs them.
	"TestParallelEngineBitIdentical":      {geom: "small4", protos: families, loads: []string{"canneal", "ssca2"}, cells: derive([]cell{{name: "unbatched"}, {name: "batched", batched: true}}, "%s", concurrent)},
	"TestParallelFaultModesBitIdentical":  {geom: "small4", protos: []string{flagship}, loads: []string{"ssca2"}, faults: faultSpecs, cells: []cell{deflt.with("%s/concurrent", concurrent)}},
	"TestParallelTraceReplayBitIdentical": {geom: "small4", protos: []string{flagship}, loads: []string{"ssca2@3"}, cells: []cell{deflt.with("replay/%s/concurrent", replayed, concurrent)}},
	"TestParallelLitmusEveryProtocol":     {geom: "small4", litmus: 10, loads: []string{"SB", "SB+fences", "SB+xchg"}, cells: []cell{deflt.with("%s/concurrent", concurrent)}},
	"TestParallelLitmusIdentical":         {geom: "small4", protos: []string{mesiName, flagship}, litmus: 20, cells: []cell{deflt.with("%s/concurrent", concurrent)}, slow: true},
}

func TestEngineModesBitIdentical(t *testing.T)          { conform(t) }
func TestEngineModesDenseComputeIdentical(t *testing.T) { conform(t) }
func TestEngineModesSpinlockIdentical(t *testing.T)     { conform(t) }
func TestEngineModesLitmusIdentical(t *testing.T)       { conform(t) }
func TestFaultModesBitIdentical(t *testing.T)           { conform(t) }
func TestScale64FaultModesBitIdentical(t *testing.T)    { conform(t) }
func TestTraceReplayBitIdentical(t *testing.T)          { conform(t) }
func TestScale64TraceReplayBitIdentical(t *testing.T)   { conform(t) }
func TestChecksBitIdentical(t *testing.T)               { conform(t) }
func TestObsOnOffBitIdentical(t *testing.T)             { conform(t) }
func TestScale64Conformance(t *testing.T)               { conform(t) }
func TestParallelEngineBitIdentical(t *testing.T)       { conform(t) }
func TestParallelFaultModesBitIdentical(t *testing.T)   { conform(t) }
func TestParallelTraceReplayBitIdentical(t *testing.T)  { conform(t) }
func TestParallelLitmusEveryProtocol(t *testing.T)      { conform(t) }
func TestParallelLitmusIdentical(t *testing.T)          { conform(t) }

// The far-hit row's hit chain: one miss, then hits at farHitLat each.
const farHitLat, farHits = 70, 20

// TestEngineModesFarHitCompletions: with the hit latency past the due
// wheel, every hit completion is filed in the far set; the chain must
// also take the full latency per hit.
func TestEngineModesFarHitCompletions(t *testing.T) {
	conform(t)
	for _, p := range table[t.Name()].protos {
		if r := reference(t, key{geom: "far-hit", proto: p, load: "hit-chain"}).res; r.Cycles < farHits*farHitLat {
			t.Errorf("%s: %d load hits took %d cycles, want at least %d", p, farHits, r.Cycles, farHits*farHitLat)
		}
	}
}

// geometries are the machines rows run on.
var geometries = map[string]config.System{
	"small2":  config.Small(2),
	"small4":  config.Small(4),
	"scaled4": config.Scaled(4),
	"small64": config.Small(64),
	"far-hit": func() config.System {
		s := config.Small(4)
		s.L1HitLat = farHitLat
		return s
	}(),
}

// key is what a fingerprint depends on besides the cell; load is a
// litmus test when iters > 0.
type key struct {
	geom, proto, load, faults string
	seed                      uint64 // fault seed
	iters                     int
}

// conform runs the calling test's row: a subtest per (protocol, load,
// fault spec), named by its dimensions with more than one value, and in
// it a subtest per cell.
func conform(t *testing.T) {
	r, ok := table[t.Name()]
	if !ok {
		t.Fatalf("no conformance row %s", t.Name())
	}
	if r.slow && testing.Short() {
		t.Skip("slow litmus sweep")
	}
	protos, loads, specs := r.protos, r.loads, r.faults
	if protos == nil {
		protos = coherence.ProtocolNames()
	}
	if r.litmus > 0 && loads == nil {
		for _, test := range litmus.Suite() {
			loads = append(loads, test.Name)
		}
	}
	if specs == nil {
		specs = []string{""}
	}
	for _, p := range protos {
		for _, l := range loads {
			for _, f := range specs {
				k := key{geom: r.geom, proto: p, load: l, faults: f, iters: r.litmus}
				if f != "" {
					k.seed = faultSeed
				}
				var name []string
				for i, d := range [][]string{protos, loads, specs} {
					if len(d) > 1 {
						name = append(name, []string{p, l, f}[i])
					}
				}
				cells := func(t *testing.T) {
					for _, c := range r.cells {
						t.Run(c.name, func(t *testing.T) { c.check(t, k) })
					}
				}
				if name == nil {
					cells(t)
				} else {
					t.Run(strings.Join(name, "/"), cells)
				}
			}
		}
	}
}

// check runs cell c of k and fails, naming the cell and printing both
// fingerprints, unless it reproduces its reference. The default cell is
// the reference's own run, and the recorder cell the recording's.
func (c cell) check(t *testing.T, k key) {
	var rec recording
	if c.record || c.replay {
		rec = recordingOf(t, k)
	}
	want, of := rec.fp, "recording"
	if !c.replay {
		want, of = reference(t, k).fp, "reference"
	}
	if c == deflt {
		return
	}
	proto, errs := protocol(t, k.proto), make([]error, max(c.copies, 1))
	var wg sync.WaitGroup
	for i := range errs { // the copies run at once
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := rec.outcome, error(nil)
			if c != recorder {
				got, err = c.outcome(k, proto, rec.tr)
			}
			switch {
			case err != nil:
				errs[i] = err
			case got.fp != want:
				errs[i] = fmt.Errorf("diverged from the %s:\n %s: %s\n %s: %s", of, of, want, c.name, got.fp)
			case c.record && !bytes.Equal(got.data, rec.data):
				errs[i] = fmt.Errorf("captured %d trace bytes, the recording %d", len(got.data), len(rec.data))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("%s: %v", t.Name(), err)
	}
}

// config is k's machine with c's settings.
func (k key) config(c cell) config.System {
	cfg, ok := geometries[k.geom]
	if !ok {
		panic("unknown geometry " + k.geom)
	}
	cfg.FaultProfile, cfg.FaultSeed = k.faults, k.seed
	cfg.PerCycleEngine, cfg.BatchedCore, cfg.Checks, cfg.Shards = c.perCycle, c.batched, c.checks, c.shards
	if c.obs {
		cfg.Obs = &obs.Obs{Metrics: obs.NewRegistry(), Timeline: obs.NewTimeline()}
	}
	return cfg
}

// workload generates k's program and names its seed: a registered
// workload at seed 1, or at seed s for load "name@s", or one of the
// shapes spinlock and hit-chain.
func (k key) workload() (*program.Workload, uint64) {
	name, seed := k.load, uint64(1)
	if n, s, ok := strings.Cut(k.load, "@"); ok {
		name = n
		if _, err := fmt.Sscan(s, &seed); err != nil {
			panic(err)
		}
	}
	threads := geometries[k.geom].Cores
	switch name {
	case "spinlock":
		return spinWorkload(threads, 40), seed
	case "hit-chain":
		chain := program.NewBuilder("hit-chain")
		chain.Li(1, 0x1000)
		for i := 0; i < farHits+1; i++ {
			chain.Ld(2, 1, 0)
		}
		chain.Halt()
		return &program.Workload{Name: "hit-chain", Programs: []*program.Program{chain.MustBuild()}}, seed
	}
	e := workloads.ByName(name)
	if e == nil {
		panic("unknown workload " + name)
	}
	return e.Gen(workloads.Params{Threads: threads, Scale: 1, Seed: seed}), seed
}

// run executes k under c once — the program, a recording of it (and
// the encoded trace), or a replay of tr — failing on a failed check.
func (c cell) run(k key, proto system.Protocol, tr *trace.Trace) (r *system.Result, data []byte, err error) {
	cfg := k.config(c)
	switch {
	case c.replay:
		r, err = system.Replay(cfg, proto, tr)
	case c.record:
		w, seed := k.workload()
		var rec *trace.Trace
		if r, rec, err = system.RunRecorded(cfg, proto, w, seed); err == nil {
			data, err = trace.Encode(rec)
		}
	default:
		w, _ := k.workload()
		r, err = system.Run(cfg, proto, w)
	}
	if err == nil && r.CheckErr != nil {
		err = fmt.Errorf("functional check: %w", r.CheckErr)
	}
	return r, data, err
}

// outcome is what a run must reproduce: the Result's fingerprint (for
// a litmus key, the outcome histogram), the Result, and a recording's
// encoded trace.
type outcome struct {
	fp   string
	res  *system.Result // nil for a litmus key
	data []byte
}

// outcome runs k under c once; a litmus key's histogram must also hold
// no TSO-forbidden outcome.
func (c cell) outcome(k key, proto system.Protocol, tr *trace.Trace) (outcome, error) {
	if k.iters > 0 {
		res, err := litmus.Run(litmusTest(k.load), proto, k.config(c), k.iters, 42)
		if err == nil && !res.Ok() {
			err = fmt.Errorf("forbidden outcomes: %v", res.Violations)
		}
		if err != nil {
			return outcome{}, err
		}
		return outcome{fp: fmt.Sprint(res.Outcomes)}, nil
	}
	r, data, err := c.run(k, proto, tr)
	if err != nil {
		return outcome{}, err
	}
	return outcome{fingerprint(r), r, data}, nil
}

// The references by key. Tests here run one at a time: no lock.
var (
	references = map[key]outcome{}
	recordings = map[key]recording{}
)

type recording struct {
	outcome
	tr *trace.Trace // decoded from data; replays only read it
}

// reference is k's run on the default machine.
func reference(t *testing.T, k key) outcome {
	ref, ok := references[k]
	if !ok {
		var err error
		if ref, err = deflt.outcome(k, protocol(t, k.proto), nil); err != nil {
			t.Fatalf("reference %+v: %v", k, err)
		}
		references[k] = ref
	}
	return ref
}

// recordingOf is k's recording run on the default machine.
func recordingOf(t *testing.T, k key) recording {
	rec, ok := recordings[k]
	if !ok {
		var err error
		if rec.outcome, err = recorder.outcome(k, protocol(t, k.proto), nil); err != nil {
			t.Fatalf("recording %+v: %v", k, err)
		}
		if rec.tr, err = trace.Decode(rec.data); err != nil {
			t.Fatalf("decode: %v", err)
		}
		recordings[k] = rec
	}
	return rec
}

func protocol(t testing.TB, name string) system.Protocol {
	p, err := coherence.ProtocolByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func litmusTest(name string) *litmus.Test {
	suite := litmus.Suite()
	return suite[slices.IndexFunc(suite, func(t *litmus.Test) bool { return t.Name == name })]
}

// TestFaultDifferentSeedsDiverge checks that every coherence.Probe field
// (EvictFault, ResetFault, AckDelay) is consulted where it should be and
// nowhere else. On every registered protocol, each profile delivered
// through one must move the run off the fault-free reference for one of
// five seeds — except reset-storm without timestamps, which has nothing
// to consult the hook from and must match it on all five. The flagship
// preset also rides the mesh/port profiles and the composite spec.
func TestFaultDifferentSeedsDiverge(t *testing.T) {
	for _, name := range coherence.ProtocolNames() {
		proto := protocol(t, name)
		tp, ok := proto.(tsocc.Protocol)
		timestamps := ok && tp.Cfg.Timestamps()
		profiles := []string{"evict", "reset-storm", "victim"}
		if name == flagship {
			profiles = faultSpecs
		}
		k := key{geom: "small4", proto: name, load: "ssca2"}
		base := reference(t, k).fp
		for _, prof := range profiles {
			inert := prof == "reset-storm" && !timestamps
			diverged := 0
			for k.faults, k.seed = prof, 1; k.seed <= 5 && (inert || diverged == 0); k.seed++ {
				got, err := deflt.outcome(k, proto, nil)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", name, prof, k.seed, err)
				}
				if got.fp != base {
					diverged++
				}
			}
			switch {
			case inert && diverged != 0:
				t.Errorf("%s/%s: %d of five seeds diverged from the nominal run — a protocol without timestamps consulted ResetFault",
					name, prof, diverged)
			case !inert && diverged == 0:
				t.Errorf("%s/%s: five seeds all matched the nominal run — injection inert?", name, prof)
			}
		}
	}
}

// TestFaultSweepOracles is the randomized robustness gate: 20 seeds ×
// every profile × every registered protocol, with the runtime invariant
// oracles armed. Any SWMR, data-value, ordering, or functional-check
// violation — or a deadlock — fails the sweep.
func TestFaultSweepOracles(t *testing.T) {
	seeds := uint64(20)
	if testing.Short() {
		seeds = 3
	}
	eachFault(t, func(t *testing.T, k key, proto system.Protocol) {
		for k.load, k.seed = "ssca2@2", 1; k.seed <= seeds; k.seed++ {
			if _, _, err := checked[1].run(k, proto, nil); err != nil {
				t.Fatalf("seed %d: %v", k.seed, err)
			}
		}
	})
}

// eachFault runs f as a subtest per registered protocol × fault spec.
func eachFault(t *testing.T, f func(t *testing.T, k key, proto system.Protocol)) {
	for _, name := range coherence.ProtocolNames() {
		for _, prof := range faultSpecs {
			t.Run(name+"/"+prof, func(t *testing.T) { f(t, key{geom: "small4", proto: name, faults: prof}, protocol(t, name)) })
		}
	}
}

// TestLitmusUnderFaults runs the full litmus suite under every fault
// profile on every registered protocol, oracles armed: injected timing
// must never produce a TSO-forbidden outcome.
func TestLitmusUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted litmus sweep is slow")
	}
	eachFault(t, func(t *testing.T, k key, proto system.Protocol) {
		k.seed, k.iters = 3, 15
		for _, test := range litmus.Suite() {
			k.load = test.Name
			if _, err := checked[1].outcome(k, proto, nil); err != nil {
				t.Fatalf("%s under %s faults: %v", test.Name, k.faults, err)
			}
		}
	})
}

// FuzzFaultProfile: no profile Parse accepts (it clamps out-of-range
// values) may break determinism — the checked per-cycle engine against
// the checked wake-set engine, both batched — or trip the oracles on MESI.
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
	proto := protocol(f, mesiName)
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		if _, err := faults.Parse(spec); err != nil {
			t.Skip()
		}
		k := key{geom: "small2", proto: mesiName, load: "ssca2", faults: spec, seed: seed}
		var fps [2]string
		for i, c := range checked {
			got, err := c.outcome(k, proto, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fps[i] = got.fp
		}
		if fps[0] != fps[1] {
			t.Fatalf("spec %q seed %d diverged across engines:\n %s\n %s", spec, seed, fps[0], fps[1])
		}
	})
}

// TestTraceReplayCrossProtocol pins the elastic-replay contract: a
// trace recorded under one protocol must complete under every other
// registered protocol (cycle counts legitimately differ; the run must
// still quiesce with the recorded op counts).
func TestTraceReplayCrossProtocol(t *testing.T) {
	names := coherence.ProtocolNames()
	k := key{geom: "small4", proto: names[0], load: "ssca2@3"}
	rec := recordingOf(t, k)
	ops := func(r *system.Result) string {
		return fmt.Sprintf("ld=%d st=%d rmw=%d fence=%d instr=%d", r.Loads, r.Stores, r.RMWs, r.Fences, r.Instructions)
	}
	for _, name := range names {
		r, _, err := replayCell.run(k, protocol(t, name), rec.tr)
		if err != nil {
			t.Fatalf("replay on %s: %v", name, err)
		}
		if got, want := ops(r), ops(rec.res); got != want {
			t.Fatalf("replay on %s dropped ops: got %s, want %s", name, got, want)
		}
	}
}

// TestNoUnnamedCounters: observed machines of every flavor (both
// protocol families, with and without Shards set, program and replay
// front ends) name every registered counter — an unnamed series would
// silently merge into the "" key of every dump.
func TestNoUnnamedCounters(t *testing.T) {
	named := func(t *testing.T, reg *obs.Registry) {
		if names := reg.CounterNames(); len(names) == 0 || slices.Contains(names, "") {
			t.Fatalf("registered counters %q: want some, each named", names)
		}
	}
	obsOn := deflt.with("%s/obs", armObs)
	for _, name := range []string{mesiName, flagship} {
		for _, s := range shardings {
			t.Run(fmt.Sprintf("%s/shards%d", name, s), func(t *testing.T) {
				k := key{geom: "small4", proto: name, load: "canneal"}
				cfg := k.config(obsOn.with("%s", func(c *cell) { c.shards = s }))
				w, _ := k.workload()
				if _, err := system.NewMachine(cfg, protocol(t, name), w); err != nil {
					t.Fatal(err)
				}
				named(t, cfg.Obs.Metrics)
			})
		}
	}

	// The replay leg also pins counter parity: program cores and replay
	// cores are one front end, so each replay<N> registers exactly the
	// counter suffixes core<N> did in the run it was recorded from.
	t.Run("replay", func(t *testing.T) {
		k, proto := key{geom: "small4", proto: flagship, load: "canneal"}, protocol(t, flagship)
		recCfg, cfg := k.config(obsOn), k.config(obsOn)
		w, seed := k.workload()
		_, tr, err := system.RunRecorded(recCfg, proto, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := system.NewReplayMachine(cfg, proto, tr); err != nil {
			t.Fatal(err)
		}
		named(t, cfg.Obs.Metrics)
		rec, rep := frontSuffixes(recCfg.Obs.Metrics, "core"), frontSuffixes(cfg.Obs.Metrics, "replay")
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
