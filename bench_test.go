// Package repro_test hosts the benchmark harness that regenerates every
// table and figure in the paper's evaluation (Table 1, Figures 2–9), plus
// ablation benchmarks for the design choices called out in DESIGN.md §5.
//
// Each Figure benchmark runs a reduced benchmark × protocol grid per
// iteration (8 cores by default, representative workloads) and reports
// the figure's headline quantity via b.ReportMetric, normalized against
// MESI exactly as the paper plots it. Run the cmd/tsocc-bench binary for
// the full 32-core, 16-benchmark grid.
package repro_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/mesi"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/storagemodel"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// benchCores keeps the per-iteration grids fast while preserving
// cross-protocol shape; the cmd/tsocc-bench tool runs the paper's 32.
const benchCores = 8

// benchSubset is a representative slice of Table 3: read-only data
// (blackscholes), false sharing (lu-noncont), scattered shared writes
// (radix), and hot RMW queues (intruder).
var benchSubset = []string{"blackscholes", "lu-noncont", "radix", "intruder"}

func runGrid(b *testing.B, protos []system.Protocol, benches []string) *harness.Grid {
	b.Helper()
	cfg := config.Scaled(benchCores)
	p := workloads.Params{Threads: benchCores, Scale: 1, Seed: 1}
	g, err := harness.RunGrid(cfg, p, protos, benches, nil)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func gmeanNormalized(g *harness.Grid, proto string, metric func(*system.Result) float64) float64 {
	var vals []float64
	for _, bench := range g.Benchmarks {
		base, r := g.Baseline(bench), g.Get(bench, proto)
		if base == nil || r == nil {
			continue
		}
		bv := metric(base)
		if bv <= 0 {
			continue
		}
		vals = append(vals, metric(r)/bv)
	}
	return stats.Geomean(vals)
}

// ---- Table 1 / Figure 2: storage model ----

func BenchmarkTable1Storage(b *testing.B) {
	var mib float64
	for i := 0; i < b.N; i++ {
		g := storagemodel.PaperGeometry(32)
		mib = storagemodel.TSOCC(g, config.C12x3()).TotalMiB
	}
	g := storagemodel.PaperGeometry(32)
	b.ReportMetric(100*storagemodel.ReductionVsMESI(g, storagemodel.TSOCC(g, config.C12x3())),
		"%reduction-vs-MESI/32c")
	_ = mib
}

func BenchmarkFigure2StorageSweep(b *testing.B) {
	cores := []int{8, 16, 32, 48, 64, 80, 96, 112, 128}
	for i := 0; i < b.N; i++ {
		_ = storagemodel.Figure2(cores)
	}
	g := storagemodel.PaperGeometry(128)
	b.ReportMetric(100*storagemodel.ReductionVsMESI(g, storagemodel.TSOCC(g, config.C12x3())),
		"%reduction-vs-MESI/128c")
}

// ---- Figures 3–9: simulation grid ----

func BenchmarkFigure3ExecutionTime(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, nil, benchSubset)
	}
	b.ReportMetric(gmeanNormalized(g, "TSO-CC-4-12-3",
		func(r *system.Result) float64 { return float64(r.Cycles) }), "norm-exec-12-3")
	b.ReportMetric(gmeanNormalized(g, "CC-shared-to-L2",
		func(r *system.Result) float64 { return float64(r.Cycles) }), "norm-exec-ccL2")
}

func BenchmarkFigure4NetworkTraffic(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, nil, benchSubset)
	}
	b.ReportMetric(gmeanNormalized(g, "TSO-CC-4-12-3",
		func(r *system.Result) float64 { return float64(r.FlitHops) }), "norm-traffic-12-3")
}

func BenchmarkFigure5MissBreakdown(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, nil, benchSubset)
	}
	r := g.Get("intruder", "TSO-CC-4-12-3")
	b.ReportMetric(100*float64(r.L1.Misses())/float64(r.L1.Accesses()), "%miss-intruder-12-3")
	b.ReportMetric(100*float64(r.L1.WriteMissShared.Value())/float64(r.L1.Accesses()), "%wrmissShared")
}

func BenchmarkFigure6HitBreakdown(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, nil, []string{"blackscholes", "raytrace"})
	}
	r := g.Get("blackscholes", "TSO-CC-4-12-3")
	b.ReportMetric(100*float64(r.L1.ReadHitSRO.Value())/float64(r.L1.Accesses()), "%hit-SRO-blacksch")
}

func BenchmarkFigure7SelfInvalidations(b *testing.B) {
	protos := []system.Protocol{mesi.New(), tsocc.New(config.Basic()), tsocc.New(config.C12x3())}
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, protos, benchSubset)
	}
	basic := g.Get("radix", "TSO-CC-4-basic")
	ts := g.Get("radix", "TSO-CC-4-12-3")
	b.ReportMetric(100*float64(basic.L1.SelfInvTotal())/float64(basic.L1.DataResponses.Value()),
		"%selfinv-basic")
	b.ReportMetric(100*float64(ts.L1.SelfInvTotal())/float64(ts.L1.DataResponses.Value()),
		"%selfinv-12-3")
}

func BenchmarkFigure8RMWLatency(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, nil, []string{"intruder", "ssca2", "radix"})
	}
	b.ReportMetric(gmeanNormalized(g, "TSO-CC-4-12-3",
		func(r *system.Result) float64 { return r.L1.MeanRMWLatency() }), "norm-rmwlat-12-3")
}

func BenchmarkFigure9InvalidationCauses(b *testing.B) {
	protos := []system.Protocol{mesi.New(), tsocc.New(config.C12x3())}
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = runGrid(b, protos, []string{"x264", "intruder"})
	}
	r := g.Get("x264", "TSO-CC-4-12-3")
	total := float64(r.L1.SelfInvTotal())
	if total > 0 {
		b.ReportMetric(100*float64(r.L1.SelfInvEvents[coherence.CauseAcquireNonSRO].Value())/total,
			"%cause-acquire-x264")
	}
}

// ---- Ablations (DESIGN.md §5) ----

func ablationGrid(b *testing.B, cfgs []config.TSOCC, benches []string) *harness.Grid {
	b.Helper()
	protos := []system.Protocol{mesi.New()}
	for _, c := range cfgs {
		protos = append(protos, tsocc.New(c))
	}
	return runGrid(b, protos, benches)
}

// BenchmarkAblationAccessCounter varies Bmaxacc: 0 bits effectively
// means one Shared hit per fill; more bits amortize re-requests.
func BenchmarkAblationAccessCounter(b *testing.B) {
	mk := func(bits int) config.TSOCC {
		c := config.C12x3()
		c.MaxAccBits = bits
		return c
	}
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = ablationGrid(b, []config.TSOCC{mk(1), mk(2), mk(4), mk(6)}, []string{"x264", "intruder"})
	}
	for _, bits := range []int{1, 2, 4, 6} {
		c := mk(bits)
		b.ReportMetric(gmeanNormalized(g, c.Name(),
			func(r *system.Result) float64 { return float64(r.Cycles) }),
			"norm-exec-acc"+itoa(bits))
	}
}

// BenchmarkAblationTransitiveReduction compares the basic protocol
// (every remote response self-invalidates) against timestamped configs.
func BenchmarkAblationTransitiveReduction(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = ablationGrid(b, []config.TSOCC{config.Basic(), config.NoReset()}, benchSubset)
	}
	basic := 0.0
	noreset := 0.0
	for _, bench := range g.Benchmarks {
		rb := g.Get(bench, "TSO-CC-4-basic")
		rn := g.Get(bench, "TSO-CC-4-noreset")
		basic += float64(rb.L1.SelfInvTotal())
		noreset += float64(rn.L1.SelfInvTotal())
	}
	if basic > 0 {
		b.ReportMetric(100*(1-noreset/basic), "%selfinv-reduction")
	}
}

// BenchmarkAblationWriteGroup varies Bwg (the >= acquire rule makes
// coarser groups more conservative).
func BenchmarkAblationWriteGroup(b *testing.B) {
	mk := func(wg int) config.TSOCC {
		c := config.C12x3()
		c.WriteGroupBits = wg
		return c
	}
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = ablationGrid(b, []config.TSOCC{mk(0), mk(3), mk(6)}, []string{"x264", "lu-noncont"})
	}
	for _, wg := range []int{0, 3, 6} {
		b.ReportMetric(gmeanNormalized(g, mk(wg).Name(),
			func(r *system.Result) float64 { return float64(r.Cycles) }),
			"norm-exec-wg"+itoa(wg))
	}
}

// BenchmarkAblationTimestampBits varies Bts (reset frequency): halving
// the timestamp width multiplies resets; execution stays nearly flat
// (the paper's §3.5/§5 claim). Write-group size 1 maximizes source
// advancement so small widths wrap within these kernels.
func BenchmarkAblationTimestampBits(b *testing.B) {
	mk := func(bits int) config.TSOCC {
		c := config.C12x0()
		c.TimestampBits = bits
		return c
	}
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = ablationGrid(b, []config.TSOCC{mk(5), mk(7), mk(9)},
			[]string{"ssca2", "intruder", "lu-noncont"})
	}
	for _, bits := range []int{5, 7, 9} {
		c := mk(bits)
		var resets int64
		for _, bench := range g.Benchmarks {
			resets += g.Get(bench, c.Name()).L1.TimestampResets.Value()
		}
		b.ReportMetric(float64(resets), "resets-ts"+itoa(bits))
		b.ReportMetric(gmeanNormalized(g, c.Name(),
			func(r *system.Result) float64 { return float64(r.Cycles) }),
			"norm-exec-ts"+itoa(bits))
	}
}

// BenchmarkAblationSharedRO toggles the §3.4 optimization (the paper
// reports >35% execution time and >75% traffic improvement from it).
func BenchmarkAblationSharedRO(b *testing.B) {
	with := config.C12x3()
	without := config.C12x3()
	without.SharedRO = false
	cfg0 := config.Scaled(benchCores)
	p0 := workloads.Params{Threads: benchCores, Scale: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		// Both configs share the paper name; run them directly rather
		// than through a name-keyed grid.
		for _, c := range []config.TSOCC{with, without} {
			e := workloads.ByName("raytrace")
			if _, err := system.Run(cfg0, tsocc.New(c), e.Gen(p0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg := config.Scaled(benchCores)
	p := workloads.Params{Threads: benchCores, Scale: 1, Seed: 1}
	for _, bench := range []string{"blackscholes", "raytrace"} {
		e := workloads.ByName(bench)
		rw, err := system.Run(cfg, tsocc.New(with), e.Gen(p))
		if err != nil {
			b.Fatal(err)
		}
		rwo, err := system.Run(cfg, tsocc.New(without), e.Gen(p))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rwo.Cycles)/float64(rw.Cycles), "noSRO-over-SRO-"+bench)
	}
}

// BenchmarkAblationDecay varies the Shared→SharedRO decay threshold on
// a write-once/read-forever pattern (the case §3.4's decay targets).
func BenchmarkAblationDecay(b *testing.B) {
	mk := func(d uint32) config.TSOCC {
		c := config.C12x0()
		c.DecayWrites = d
		return c
	}
	cfg := config.Scaled(benchCores)
	measure := func(d uint32) *system.Result {
		r, err := system.Run(cfg, tsocc.New(mk(d)), decayWorkload(benchCores))
		if err != nil {
			b.Fatal(err)
		}
		if r.CheckErr != nil {
			b.Fatal(r.CheckErr)
		}
		return r
	}
	for i := 0; i < b.N; i++ {
		for _, d := range []uint32{8, 64, 1 << 20} {
			measure(d)
		}
	}
	for _, d := range []uint32{8, 64, 1 << 20} {
		r := measure(d)
		b.ReportMetric(float64(r.DecayEvents), "decays-"+itoa(int(d)))
		b.ReportMetric(100*float64(r.L1.ReadHitSRO.Value())/float64(r.L1.Accesses()),
			"%SRO-hits-decay"+itoa(int(d)))
	}
}

// ---- Microbenchmarks of the substrate ----

func BenchmarkSimCounterMESI(b *testing.B)  { benchProto(b, mesi.New()) }
func BenchmarkSimCounterTSOCC(b *testing.B) { benchProto(b, tsocc.New(config.C12x3())) }

func benchProto(b *testing.B, proto system.Protocol) {
	b.Helper()
	cfg := config.Scaled(benchCores)
	p := workloads.Params{Threads: benchCores, Scale: 1, Seed: 1}
	e := workloads.ByName("ssca2")
	var cycles int64
	for i := 0; i < b.N; i++ {
		r, err := system.Run(cfg, proto, e.Gen(p))
		if err != nil {
			b.Fatal(err)
		}
		cycles = int64(r.Cycles)
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// decayWorkload: thread 0 writes a target line once, then keeps writing
// other lines homed at the SAME tile (advancing its last-seen timestamp
// there); the other threads read the target repeatedly. With a small
// decay threshold the target transitions to SharedRO and readers stop
// paying the Shared access budget.
func decayWorkload(threads int) *program.Workload {
	target := int64(0x100000)
	stride := int64(threads) * 64 // same home tile
	wr := program.NewBuilder("writer")
	wr.Li(1, target).Li(2, 1)
	wr.St(1, 0, 2) // write the target once (dirty -> Shared on downgrade)
	wr.Li(3, 0)
	wr.Li(4, 400)
	wr.Label("churn")
	wr.Mod(5, 3, 64)
	wr.Addi(5, 5, 1) // lines 1..64 relative to the target
	wr.Li(6, stride)
	wr.Mul(5, 5, 6)
	wr.Add(5, 5, 1)
	wr.St(5, 0, 2) // distinct lines, same home tile as the target
	wr.Addi(3, 3, 1)
	wr.Blt(3, 4, "churn")
	wr.Halt()
	progs := []*program.Program{wr.MustBuild()}
	for t := 1; t < threads; t++ {
		rd := program.NewBuilder("reader")
		rd.Li(1, target)
		rd.Li(3, 0)
		rd.Li(4, 500)
		rd.Label("loop")
		rd.Ld(2, 1, 0)
		rd.Addi(3, 3, 1)
		rd.Blt(3, 4, "loop")
		rd.Halt()
		progs = append(progs, rd.MustBuild())
	}
	return &program.Workload{Name: "decay-probe", Programs: progs}
}

// BenchmarkAblationTSTableEntries bounds the per-node last-seen tables
// (§3.3): smaller tables lose entries and self-invalidate more.
func BenchmarkAblationTSTableEntries(b *testing.B) {
	mk := func(entries int) config.TSOCC {
		c := config.C12x0()
		c.TSTableEntries = entries
		return c
	}
	cfg := config.Scaled(benchCores)
	p := workloads.Params{Threads: benchCores, Scale: 1, Seed: 1}
	e := workloads.ByName("lu-noncont")
	measure := func(entries int) *system.Result {
		r, err := system.Run(cfg, tsocc.New(mk(entries)), e.Gen(p))
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 0} {
			measure(n)
		}
	}
	for _, n := range []int{1, 2, 0} {
		r := measure(n)
		b.ReportMetric(float64(r.L1.SelfInvTotal()), "selfinv-entries"+itoa(n))
	}
}
