package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/system"
)

// tiny shrinks a workload to a few milliseconds of host time while
// keeping its machine, protocol, front end and input generator.
func (s spec) tiny() spec {
	if s.program != "" {
		s.scale = 1
	} else {
		s.opsPerCore = 1500
	}
	return s
}

// reference runs the tiny workload through system.Run / system.Replay,
// the path the traced wiring must stay equal to.
func reference(t *testing.T, s spec, seed uint64) fingerprint {
	t.Helper()
	in, _, err := s.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	var res *system.Result
	if in.tr != nil {
		res, err = system.Replay(s.cfg(), s.proto(), in.tr)
	} else {
		res, err = system.Run(s.cfg(), s.proto(), in.w)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatalf("functional check: %v", res.CheckErr)
	}
	return fingerprint{
		Cycles: int64(res.Cycles), Instrs: res.Instructions, Msgs: res.Msgs, FlitHops: res.FlitHops,
		L1Misses: res.L1.Misses(), SelfInv: res.L1.SelfInvTotal(),
	}
}

// TestTracedMatchesSystem catches the shim wiring in traced.go drifting
// from system.newBase/finish, and this package's result collection
// drifting from system.Machine.collect: on all six workloads the traced
// and the untraced run must both reproduce system.Run's simulated result.
func TestTracedMatchesSystem(t *testing.T) {
	for _, s := range suite {
		s := s.tiny()
		t.Run(s.name, func(t *testing.T) {
			want := reference(t, s, 1)
			if want.Cycles == 0 || want.Instrs == 0 || want.Msgs == 0 {
				t.Fatalf("degenerate reference run: %+v", want)
			}
			untraced, err := s.execute(1, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if untraced.fp != want {
				t.Errorf("untraced run: got %+v, system says %+v", untraced.fp, want)
			}
			traced, err := s.execute(1, newTracer(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if traced.fp != want {
				t.Errorf("traced run: got %+v, system says %+v", traced.fp, want)
			}
			tr := traced.tracer
			if len(tr.stack) != 0 {
				t.Errorf("%d spans left open", len(tr.stack))
			}
			var sum time.Duration
			for k := kind(0); k < numKinds; k++ {
				if tr.self[k] < 0 {
					t.Errorf("kind %d: negative self time %v", k, tr.self[k])
				}
				sum += tr.self[k]
			}
			// The root span encloses the wall-clock reads around Execute, so
			// the two differ by a couple of clock reads only.
			if diff := sum - traced.wall; diff < 0 || diff > traced.wall/100+50*time.Microsecond {
				t.Errorf("self times sum to %v, wall is %v", sum, traced.wall)
			}
			front := kCPUTick
			if s.program == "" {
				front = kReplayTick
			}
			for _, k := range []kind{kSimRun, kMeshTick, kMeshSend, kL2Tick, kL2Deliver, kL1Tick, kL1Deliver, kL1Port, front, kMem} {
				if tr.spans[k] == 0 {
					t.Errorf("boundary %d recorded no span: a shim is not wired in", k)
				}
			}
		})
	}
}

// TestSeedReachesGenerator: another seed passes every check, and moves
// the simulated result on every workload whose generator draws from it
// (lu-cont and x264 are deterministic kernels and ignore the seed).
func TestSeedReachesGenerator(t *testing.T) {
	seeded := map[string]bool{"miss8": true, "miss8_mesi": true, "miss64": true, "replay_zipf8": true}
	for _, s := range suite {
		s := s.tiny()
		one, err := s.execute(1, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		two, err := s.execute(2, nil, 1)
		if err != nil {
			t.Fatalf("%s with seed 2: %v", s.name, err)
		}
		if moved := one.fp.Cycles != two.fp.Cycles; moved != seeded[s.name] {
			t.Errorf("%s: sim_cycles %d with seed 1, %d with seed 2; seed-dependent = %v",
				s.name, one.fp.Cycles, two.fp.Cycles, seeded[s.name])
		}
	}
}

func TestSpanAccounting(t *testing.T) {
	tr := newTracer()
	spin := func() {
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
	}
	tr.begin(kSimRun)
	for i := 0; i < 3; i++ {
		tr.begin(kL1Tick)
		spin()
		tr.begin(kMeshSend)
		spin()
		tr.end()
		tr.begin(kMeshSend)
		tr.end()
		tr.end()
	}
	tr.begin(kMeshTick)
	tr.begin(kL2Deliver)
	tr.begin(kMem)
	spin()
	tr.end()
	tr.end()
	tr.end()
	rootStart := tr.stack[0].start
	tr.end()
	root := time.Since(tr.base) - rootStart

	wantSpans := map[kind]int64{kSimRun: 1, kL1Tick: 3, kMeshSend: 6, kMeshTick: 1, kL2Deliver: 1, kMem: 1}
	wantChildren := map[kind]int64{kSimRun: 4, kL1Tick: 6, kMeshTick: 1, kL2Deliver: 1}
	var sum time.Duration
	for k := kind(0); k < numKinds; k++ {
		if tr.spans[k] != wantSpans[k] || tr.children[k] != wantChildren[k] {
			t.Errorf("kind %d: %d spans, %d children; want %d, %d", k, tr.spans[k], tr.children[k], wantSpans[k], wantChildren[k])
		}
		if tr.self[k] < 0 {
			t.Errorf("kind %d: negative self time", k)
		}
		sum += tr.self[k]
	}
	if sum > root || root-sum > 20*time.Microsecond {
		t.Errorf("self times sum to %v, root span lasted %v", sum, root)
	}
	if tr.self[kL1Tick] < 600*time.Microsecond || tr.self[kMeshSend] < 600*time.Microsecond || tr.self[kMem] < 200*time.Microsecond {
		t.Errorf("self time not credited to the span that spun: %v", tr.self)
	}
	if tr.self[kMeshTick] > 100*time.Microsecond || tr.self[kL2Deliver] > 100*time.Microsecond {
		t.Errorf("parents were charged their children's time: %v", tr.self)
	}
	cost := calibrate(3, 10000)
	if cost.inside <= 0 || cost.outside <= 0 {
		t.Errorf("calibration gave %+v", cost)
	}
	if got := tr.corrected(kMem, spanCost{inside: 1e9}); got != 0 {
		t.Errorf("corrected self time not clamped at zero: %v", got)
	}
}

// benchmarkJSON is the driver's declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredMetricsMatchBenchmarkJSON: BENCHMARK.json and the tables in
// this package name the same workloads and metrics, with the same units,
// directions and bounds, and every name and unit is well formed.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if strings.Join(b.Command, " ") != "go run ./bench" || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("malformed name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: malformed unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(suite) {
		t.Fatalf("%d workloads declared, %d in the suite", len(b.Workloads), len(suite))
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Name != suite[i].name || w.Why != suite[i].why {
			t.Errorf("workload %d: declared %q (%q), suite has %q (%q)", i, w.Name, w.Why, suite[i].name, suite[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, m, d)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}

	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(perLayerDefs))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: declared %+v, defined %+v", i, m, d)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// TestPrintedMetricsMatchDeclared: what a run prints — in the report and
// in the driver's result line — is exactly the declared set, each with
// its unit. A program input, the replay input and the sharded leg cover
// every branch that fills per-layer samples.
func TestPrintedMetricsMatchDeclared(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range []string{"hit8", "miss64", "replay_zipf8"} {
		s, _ := specByName(name)
		rep := runSuite([]spec{s.tiny()}, options{seed: 1, budget: time.Millisecond, endToEnd: true, perLayer: true, progress: io.Discard})
		wr := rep.Workloads[name]
		if wr.Failed != 0 || wr.Attempted < minReps+1 {
			t.Fatalf("%s: %d of %d runs failed: %v", name, wr.Failed, wr.Attempted, wr.Errors)
		}
		for pass, got := range map[bool]map[string]stat{true: wr.EndToEnd, false: wr.PerLayer} {
			want := map[string]string{}
			if pass {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var line bytes.Buffer
			printDriverLine(&line, wr, pass)
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != wr.Attempted || res.Failed != 0 {
				t.Errorf("%s: result line says %+v", name, res)
			}
			if len(got) != len(want) || len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics reported, %d on the result line, %d declared", name, len(got), len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				if st, ok := got[metric]; !ok || st.Unit != unit || st.N == 0 {
					t.Errorf("%s: declared metric %s missing or without unit %q in the report: %+v", name, metric, unit, st)
				}
				if m, ok := res.Metrics[metric]; !ok || m.Unit != unit || m.Value == nil {
					t.Errorf("%s: declared metric %s missing or without unit %q on the result line", name, metric, unit)
				}
			}
		}
		for _, m := range []string{"host_ns_per_sim_cycle", "sim_minstr_per_host_s", "sim_cycles", "sim_flit_hops", "host_heap_mb", "setup_s"} {
			if wr.EndToEnd[m].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", name, m, wr.EndToEnd[m].Value)
			}
		}
		if sharded := wr.PerLayer["sim.sharded_ns_per_sim_cycle"].Value; (sharded > 0) != s.shardedLeg {
			t.Errorf("%s: sim.sharded_ns_per_sim_cycle = %v", name, sharded)
		}
		if replay := wr.PerLayer["trace.replay_self_ns_per_op"].Value; (replay > 0) != (s.program == "") {
			t.Errorf("%s: trace.replay_self_ns_per_op = %v", name, replay)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "t", better: "lower", bound: 0.10}
	higher := metricDef{name: "r", better: "higher", bound: 0.10}
	st := func(v, lo, hi float64) stat { return stat{Value: v, Min: lo, Max: hi, N: 5} }
	for _, c := range []struct {
		name  string
		d     metricDef
		bound float64
		a, b  stat
		want  string
	}{
		{"within bound", lower, 0.10, st(100, 98, 102), st(105, 103, 107), verdictOK},
		{"beyond bound", lower, 0.10, st(100, 98, 102), st(111, 110, 112), verdictWorse},
		{"higher is better, fell", higher, 0.10, st(100, 98, 102), st(88, 87, 89), verdictWorse},
		{"higher is better, rose", higher, 0.10, st(100, 98, 102), st(120, 119, 121), verdictOK},
		{"spread wider than bound", lower, 0.10, st(100, 90, 110), st(101, 95, 104), verdictUnresolved},
		{"wide spread but every run better", lower, 0.10, st(100, 90, 110), st(80, 75, 89), verdictOK},
		{"exact, equal", lower, 0, st(100, 100, 100), st(100, 100, 100), verdictOK},
		{"exact, moved", lower, 0, st(100, 100, 100), st(101, 101, 101), verdictWorse},
	} {
		if _, got := judge(c.d, c.bound, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(ns, cycles float64, failed int) *report {
		e := map[string]stat{}
		for _, d := range endToEndDefs {
			e[d.name] = stat{Value: 1, Unit: d.unit, Min: 1, Max: 1, N: 3}
		}
		e["host_ns_per_sim_cycle"] = stat{Value: ns, Unit: "ns", Min: ns * 0.99, Max: ns * 1.01, N: 3}
		e["sim_cycles"] = stat{Value: cycles, Unit: "cycles", Min: cycles, Max: cycles, N: 3}
		return &report{
			Host:      hostInfo{Seed: 1},
			Workloads: map[string]*workloadReport{"miss8": {Attempted: 3, Failed: failed, EndToEnd: e}},
		}
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(500, 1000, 0))
	bound := endToEndDefs[0].bound // host_ns_per_sim_cycle
	for _, c := range []struct {
		name string
		b    *report
		code int
		want string
	}{
		{"same", mk(500, 1000, 0), 0, "0 worse"},
		{"slower within bound", mk(500*(1+bound/2), 1000, 0), 0, "0 worse"},
		{"slower beyond bound", mk(500*(1+bound*1.2), 1000, 0), 1, "1 worse"},
		{"simulated result moved", mk(500, 1001, 0), 1, "1 worse"},
		{"a run failed", mk(500, 1000, 1), 1, "1 worse"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, base, write("b.json", c.b)); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit code %d, want %d; output:\n%s", c.name, code, c.code, out.String())
		}
	}
	if code := compareFiles(io.Discard, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit code %d, want 2", code)
	}
}
