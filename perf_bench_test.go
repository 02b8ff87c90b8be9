// Throughput benchmarks for the simulation kernel: raw engine stepping,
// mesh delivery, and the L1 hit path. The acceptance bar for the
// event-driven rebuild: BenchmarkL1HitPath reports 0 allocs/op and
// BenchmarkEngineIdleSkip shows the event engine >= 2x faster than the
// per-cycle ticker on an idle-heavy (memory-latency-bound) workload.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// spinWorkload is the examples/spinlock shape: contended
// test-and-test-and-set with paused probes, a shared counter in the
// critical section, and a functional mutual-exclusion check.
func spinWorkload(threads, rounds int) *program.Workload {
	progs := make([]*program.Program, threads)
	for t := 0; t < threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("locker-%d", t))
		b.Li(3, 0)
		b.Li(4, int64(rounds))
		b.Label("loop")
		b.Li(10, 0x1000)
		b.LockAcquirePause(8, 9, 10, 0, 16)
		b.Li(6, 0x2000)
		b.Ld(7, 6, 0)
		b.Addi(7, 7, 1)
		b.St(6, 0, 7)
		b.Li(10, 0x1000)
		b.LockRelease(10, 0)
		b.Nop(int64(t)*3 + 5)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		b.Fence()
		b.Halt()
		progs[t] = b.MustBuild()
	}
	return &program.Workload{
		Name:     "spinlock",
		Programs: progs,
		Check: func(mem program.MemReader) error {
			want := uint64(threads * rounds)
			if got := mem.ReadWord(0x2000); got != want {
				return fmt.Errorf("counter = %d, want %d", got, want)
			}
			return nil
		},
	}
}

// chaseWorkload is a single-thread cold-miss stream: memory-latency
// bound, so almost every cycle is idle — the shape the idle-skip
// scheduler exists for.
func chaseWorkload(words int64) *program.Workload {
	b := program.NewBuilder("chase")
	b.Li(1, 0x400000)
	b.Li(3, 0)
	b.Li(4, words)
	b.Label("loop")
	b.Ld(2, 1, 0)
	b.Addi(1, 1, 64)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, "loop")
	b.Halt()
	return &program.Workload{Name: "chase", Programs: []*program.Program{b.MustBuild()}}
}

func runWorkload(b *testing.B, perCycle bool, gen func() *program.Workload) (simCycles int64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := config.Scaled(8)
		cfg.PerCycleEngine = perCycle
		m, err := system.NewMachine(cfg, tsocc.New(config.C12x3()), gen())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cyc, err := m.Engine.Run()
		if err != nil {
			b.Fatal(err)
		}
		simCycles = int64(cyc)
	}
	return simCycles
}

// BenchmarkEngineStep measures the full-system step rate (simulated
// cycles per second of host time) on the contended-spinlock machine in
// both engine modes.
func BenchmarkEngineStep(b *testing.B) {
	for _, mode := range []struct {
		name     string
		perCycle bool
	}{{"per-cycle", true}, {"event", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			cycles := runWorkload(b, mode.perCycle, func() *program.Workload { return spinWorkload(8, 100) })
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(cycles)/(perOp/1e9), "simcycles/s")
			}
		})
	}
}

// BenchmarkEngineIdleSkip is the idle-heavy acceptance benchmark: the
// event-driven engine must beat per-cycle by >= 2x here (observed ~7x;
// ~95% of cycles are skipped).
func BenchmarkEngineIdleSkip(b *testing.B) {
	for _, mode := range []struct {
		name     string
		perCycle bool
	}{{"per-cycle", true}, {"event", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			cycles := runWorkload(b, mode.perCycle, func() *program.Workload { return chaseWorkload(2000) })
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(cycles)/(perOp/1e9), "simcycles/s")
			}
		})
	}
}

// wideTicker is one synthetic component of BenchmarkEngineDispatchWide:
// on every tick it draws its next self-wake 1-44 cycles out and, one
// tick in four, wakes a fixed peer a few cycles ahead — lowering an
// entry the peer already holds, the other operation the due wheel has
// to make cheap.
type wideTicker struct {
	rng       uint64
	next, end sim.Cycle
	ticks     int64
	self      sim.Waker
	peer      *wideTicker
}

func (w *wideTicker) BindWaker(k sim.Waker) { w.self = k }

func (w *wideTicker) Tick(now sim.Cycle) {
	w.ticks++
	w.rng = w.rng*6364136223846793005 + 1442695040888963407
	r := w.rng >> 33
	w.next = now + 1 + sim.Cycle(r%44)
	if r&3 == 0 {
		w.peer.self.WakeAt(now + 1 + sim.Cycle((r>>2)&3))
	}
}

func (w *wideTicker) NextWake(now sim.Cycle) sim.Cycle { return w.next }
func (w *wideTicker) Done() bool                       { return w.next > w.end }

// wideEngine registers the EngineDispatchWide shape: 193 hinting
// components that quiesce after cycle end.
func wideEngine(end sim.Cycle) (*sim.Engine, []*wideTicker) {
	const components = 193
	e := sim.NewEngine(end + 64)
	ts := make([]*wideTicker, components)
	for i := range ts {
		ts[i] = &wideTicker{rng: uint64(i)*0x9e3779b97f4a7c15 + 1, end: end}
		e.Register(ts[i])
	}
	for i, t := range ts {
		t.peer = ts[(i*7+3)%components]
	}
	return e, ts
}

// engineDispatchWideOp dispatches one due cycle of a wideEngine.
func engineDispatchWideOp(testing.TB) func() {
	e, _ := wideEngine(1 << 40)
	return func() { e.RunWindow(e.NextDue() + 1) }
}

// BenchmarkEngineDispatchWide isolates wake-set dispatch at the shape
// the repo benchmark's miss64 workload measured: 193 hinting
// components, about 10 of them due on an average cycle, almost no idle
// cycles. One op is one simulated cycle, so ns/op is the engine's own
// cost per cycle plus ten trivial ticks; it must follow the number of
// components due, not the number registered.
func BenchmarkEngineDispatchWide(b *testing.B) {
	e, ts := wideEngine(sim.Cycle(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	cycles, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	var ticks int64
	for _, t := range ts {
		ticks += t.ticks
	}
	b.ReportMetric(float64(ticks)/float64(cycles), "ticks/cycle")
	b.ReportMetric(100*float64(e.IdleSkipped)/float64(cycles), "idle%")
}

// BenchmarkLowIdleWorkload is the wake-set scheduler's acceptance
// benchmark: the x264 pipeline shape keeps some core active on most
// cycles (~13% idle-skip), so the old scan-all event engine paid the
// tick-all/rescan-all overhead on nearly every cycle and ran *slower*
// than per-cycle here. The wake-set engine must keep the event mode at
// least at parity with per-cycle on this shape (it dispatches only the
// handful of due components per active cycle).
func BenchmarkLowIdleWorkload(b *testing.B) {
	e := workloads.ByName("x264")
	if e == nil {
		b.Fatal("x264 missing from registry")
	}
	for _, mode := range []struct {
		name     string
		perCycle bool
	}{{"per-cycle", true}, {"event", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			cycles := runWorkload(b, mode.perCycle, func() *program.Workload {
				return e.Gen(workloads.Params{Threads: 8, Scale: 1, Seed: 1})
			})
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(cycles)/(perOp/1e9), "simcycles/s")
			}
		})
	}
}

// BenchmarkDenseCompute is the batched-core acceptance benchmark: an
// ALU-dense workload (back-to-back register instructions, one maximal
// straight-line run per loop iteration) where the event engine alone
// cannot skip anything — every cycle has a core retiring an
// instruction. The batched core model must beat the unbatched event
// engine by >= 3x host time here, while remaining bit-identical (the
// workload's checksum check and the engine-mode A/B gates enforce it).
func BenchmarkDenseCompute(b *testing.B) {
	for _, mode := range []struct {
		name     string
		perCycle bool
		batched  bool
	}{
		{"per-cycle", true, false},
		{"event-unbatched", false, false},
		{"event-batched", false, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := config.Scaled(8)
				cfg.PerCycleEngine = mode.perCycle
				cfg.BatchedCore = mode.batched
				w := workloads.DenseCompute(workloads.Params{Threads: 8, Scale: 1, Seed: 1})
				m, err := system.NewMachine(cfg, tsocc.New(config.C12x3()), w)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cyc, err := m.Engine.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = int64(cyc)
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(cycles)/(perOp/1e9), "simcycles/s")
			}
		})
	}
}

// benchTrace records the 8-core ssca2 run once per process: the shared
// input for the trace-subsystem benchmarks.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	e := workloads.ByName("ssca2")
	if e == nil {
		b.Fatal("ssca2 missing from registry")
	}
	w := e.Gen(workloads.Params{Threads: 8, Scale: 1, Seed: 1})
	_, tr, err := system.RunRecorded(config.Scaled(8), tsocc.New(config.C12x3()), w, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTraceReplay measures trace-driven execution throughput: one
// full replay of the recorded ssca2 stream through the event engine per
// op, reported as trace ops replayed per second of host time.
func BenchmarkTraceReplay(b *testing.B) {
	tr := benchTrace(b)
	cfg := config.Scaled(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := system.NewReplayMachine(cfg, tsocc.New(config.C12x3()), tr)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Engine.Run(); err != nil {
			b.Fatal(err)
		}
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(tr.Ops())/(perOp/1e9), "traceops/s")
	}
}

// BenchmarkTraceCodec measures the binary codec on the recorded ssca2
// trace: bytes/op via SetBytes (throughput) plus the encoded size per
// trace op as a custom metric.
func BenchmarkTraceCodec(b *testing.B) {
	tr := benchTrace(b)
	data, err := trace.Encode(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := trace.Encode(tr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data))/float64(tr.Ops()), "bytes/traceop")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// poolSink is a mesh endpoint that recycles delivered messages,
// completing the zero-allocation send/deliver cycle.
type poolSink struct {
	net      *mesh.Network
	received int
}

func (s *poolSink) Deliver(now sim.Cycle, m *coherence.Msg) {
	s.received++
	s.net.Pool.Put(m)
}

// meshDeliveryOp sends one pooled data message between two of 16
// poolSinks attached at node IDs base.. on net and runs e, the engine
// net is registered on, until it is delivered.
func meshDeliveryOp(e *sim.Engine, net *mesh.Network, base coherence.NodeID) (func(), []*poolSink) {
	sinks := make([]*poolSink, 16)
	for i := range sinks {
		sinks[i] = &poolSink{net: net}
		net.Attach(base+coherence.NodeID(i), i, sinks[i])
	}
	payload := make([]byte, 64)
	i := 0
	return func() {
		m := net.Pool.Get()
		m.Type = coherence.MsgDataS
		m.Src = base + coherence.NodeID(i%16)
		m.Dst = base + coherence.NodeID((i*7+3)%16)
		m.SetData(payload)
		if m.Src == m.Dst {
			m.Dst = base + coherence.NodeID((i%16+1)%16)
		}
		i++
		net.Send(e.Now(), m)
		for net.Pending() > 0 {
			e.RunWindow(e.NextDue() + 1)
		}
	}, sinks
}

// meshDeliveryBareOp is meshDeliveryOp on a 16-router mesh registered
// alone on its engine.
func meshDeliveryBareOp() (func(), []*poolSink) {
	net := mesh.New(mesh.Config{Routers: 16})
	e := sim.NewEngine(0)
	e.Register(net)
	return meshDeliveryOp(e, net, 0)
}

// runOp times b.N calls of one benchmark body.
func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkMeshDelivery measures scheduling + delivery through the
// engine's completion ring: one data message per op, fully pooled.
// Expect 0 allocs/op in steady state.
func BenchmarkMeshDelivery(b *testing.B) {
	op, sinks := meshDeliveryBareOp()
	runOp(b, op)
	b.ReportMetric(float64(sinks[0].received), "sink0-msgs")
}

// TestHotPathZeroAlloc is the alloc-regression gate: the paths the
// ROADMAP guarantees allocation-free (L1 hits through the CorePort, mesh
// scheduling + delivery through the engine, wake-set dispatch,
// a cache hit read through its slab block, a line replacing another
// in a way that already owns one, and both TSO front ends issuing hits)
// run the benchmark bodies under
// testing.AllocsPerRun and must average 0 allocations per op. This
// fails in plain `go test`, so a regression cannot hide behind a
// benchmark nobody reads.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, body := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"L1HitPath", l1HitPathOp},
		{"L1HitPathFaultsChecksOff", l1HitPathFaultsChecksOffOp},
		{"MeshDelivery", func(testing.TB) func() {
			op, _ := meshDeliveryBareOp()
			return op
		}},
		{"MeshDeliveryFaultsOff", func(tb testing.TB) func() {
			op, _ := meshDeliveryFaultsOffOp(tb)
			return op
		}},
		{"EngineDispatchWide", engineDispatchWideOp},
		{"CacheHitBlock", cacheHitBlockOp},
		{"CacheReinstall", cacheReinstallOp},
		{"CoreHitLoop", coreHitLoopOp},
		{"ReplayLoadStream", replayLoadStreamOp},
	} {
		t.Run(body.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(1000, body.op(t)); allocs != 0 {
				t.Fatalf("%s allocates %.0f/op, want 0", body.name, allocs)
			}
		})
	}
}

// l1HitOp builds a one-core machine for cfg, warms line 0x1000 into core
// 0's L1 and returns one load hit through port(m): the L1 accepts it and
// the engine advances until its completion has fired.
func l1HitOp(tb testing.TB, cfg config.System, port func(*system.Machine) coherence.CorePort) func() {
	warm := program.NewBuilder("warm")
	warm.Li(1, 0x1000)
	warm.Ld(2, 1, 0)
	warm.Halt()
	w := &program.Workload{Name: "warm", Programs: []*program.Program{warm.MustBuild()}}
	m, err := system.NewMachine(cfg, tsocc.New(config.C12x3()), w)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Engine.Run(); err != nil {
		tb.Fatal(err)
	}
	p, e := port(m), m.Engine
	issued, fired := 0, 0
	cb := func(uint64) { fired++ }
	return func() {
		now := e.Now()
		if !p.Load(now, 0x1000, cb) {
			tb.Fatal("port refused a hit load")
		}
		issued++
		e.RunWindow(now + cfg.L1HitLat + 1)
		if fired != issued {
			tb.Fatalf("hit completion did not fire: %d of %d", fired, issued)
		}
	}
}

// l1HitPathOp drives the raw L1 (see BenchmarkL1HitPath).
func l1HitPathOp(tb testing.TB) func() {
	return l1HitOp(tb, config.Scaled(1), func(m *system.Machine) coherence.CorePort { return m.L1s[0] })
}

// l1HitPathFaultsChecksOffOp drives the machine's wired port chain with
// faults and checks off (see BenchmarkL1HitPathFaultsChecksOff).
func l1HitPathFaultsChecksOffOp(tb testing.TB) func() {
	cfg := config.Scaled(1)
	cfg.FaultProfile = ""
	cfg.Checks = false
	return l1HitOp(tb, cfg, func(m *system.Machine) coherence.CorePort { return m.CorePort(0) })
}

// windowOp warms e past its cold misses, then advances it by one
// 50-cycle window per call; a window in which nothing ran means the
// front end stalled and the body measures nothing.
func windowOp(tb testing.TB, e *sim.Engine) func() {
	e.RunWindow(1000)
	return func() {
		start := e.Now()
		if e.RunWindow(start + 50); e.Now() == start {
			tb.Fatalf("no progress at cycle %d", start)
		}
	}
}

// coreHitLoopOp is a one-core machine whose program loads and stores one
// line forever (every access after the first an L1 hit), stepped a
// window at a time: cpu.Core's whole issue path — dispatch, batched
// runs, write buffer, store forwarding, completion callbacks.
func coreHitLoopOp(tb testing.TB) func() {
	b := program.NewBuilder("hitloop")
	b.Li(1, 0x1000).Li(2, 0).Li(3, 1<<40)
	b.Label("loop")
	b.Ld(4, 1, 0)
	b.St(1, 8, 4)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Halt()
	w := &program.Workload{Name: "hitloop", Programs: []*program.Program{b.MustBuild()}}
	m, err := system.NewMachine(config.Scaled(1), tsocc.New(config.C12x3()), w)
	if err != nil {
		tb.Fatal(err)
	}
	return windowOp(tb, m.Engine)
}

// replayLoadStreamOp is coreHitLoopOp for trace.ReplayCore: a
// one-core replay of a long load-only stream to one line.
func replayLoadStreamOp(tb testing.TB) func() {
	cfg := config.Scaled(1)
	var ob trace.OpsBuilder
	for i := 0; i < 1<<20; i++ {
		if err := ob.Append(trace.Op{Kind: config.TraceLoad, Addr: 0x1000, Gap: 1, Instrs: 2}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ob.Append(trace.Op{Kind: config.TraceHalt, Instrs: 1}); err != nil {
		tb.Fatal(err)
	}
	ops, err := ob.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	tr := &trace.Trace{Meta: trace.Meta{Sys: cfg}, Streams: []trace.Stream{{Core: 0, Ops: ops}}}
	m, err := system.NewReplayMachine(cfg, tsocc.New(config.C12x3()), tr)
	if err != nil {
		tb.Fatal(err)
	}
	return windowOp(tb, m.Engine)
}

// BenchmarkL1HitPathFaultsChecksOff is BenchmarkL1HitPath driven through
// the machine's wired port chain with fault injection and invariant
// oracles explicitly disabled: portFor must hand back the raw L1 (no
// decorator) and the hit path must stay allocation-free.
func BenchmarkL1HitPathFaultsChecksOff(b *testing.B) {
	runOp(b, l1HitPathFaultsChecksOffOp(b))
}

// meshDeliveryFaultsOffOp is meshDeliveryOp on the mesh of a 16-core
// machine built with fault injection disabled.
func meshDeliveryFaultsOffOp(tb testing.TB) (func(), []*poolSink) {
	cfg := config.Scaled(16)
	cfg.FaultProfile = ""
	idle := program.NewBuilder("idle")
	idle.Halt()
	w := &program.Workload{Name: "idle", Programs: []*program.Program{idle.MustBuild()}}
	m, err := system.NewMachine(cfg, tsocc.New(config.C12x3()), w)
	if err != nil {
		tb.Fatal(err)
	}
	return meshDeliveryOp(m.Engine, m.Net, 0x7000)
}

// BenchmarkMeshDeliveryFaultsOff drives the pooled send/deliver cycle
// through the mesh of a machine built with fault injection disabled:
// system wiring must install no delay hook and the delivery path must
// stay allocation-free.
func BenchmarkMeshDeliveryFaultsOff(b *testing.B) {
	op, sinks := meshDeliveryFaultsOffOp(b)
	runOp(b, op)
	b.ReportMetric(float64(sinks[0].received), "sink0-msgs")
}

// BenchmarkDataResponsePath stresses the L1 data-response path: a reader
// whose Shared loads always miss (SharedAlwaysMiss) with timestamps
// enabled, so every response walks the lastSeen table lookups on both
// the L2 (respTS) and L1 (maybeSelfInvalidate) sides.
func BenchmarkDataResponsePath(b *testing.B) {
	tscfg := config.TSOCC{SharedAlwaysMiss: true, TimestampBits: 12,
		WriteGroupBits: 3, EpochBits: 3}
	gen := func() *program.Workload {
		writer := program.NewBuilder("writer")
		writer.Li(1, 0x1000)
		writer.Li(3, 0)
		writer.Li(4, 32)
		writer.Label("wl")
		writer.St(1, 0, 3)
		writer.Addi(1, 1, 64)
		writer.Addi(3, 3, 1)
		writer.Blt(3, 4, "wl")
		writer.Fence()
		writer.Halt()
		reader := program.NewBuilder("reader")
		reader.Li(5, 0)
		reader.Li(6, 400)
		reader.Label("rounds")
		reader.Li(1, 0x1000)
		reader.Li(3, 0)
		reader.Li(4, 32)
		reader.Label("rl")
		reader.Ld(2, 1, 0)
		reader.Addi(1, 1, 64)
		reader.Addi(3, 3, 1)
		reader.Blt(3, 4, "rl")
		reader.Addi(5, 5, 1)
		reader.Blt(5, 6, "rounds")
		reader.Halt()
		return &program.Workload{Name: "dataresp",
			Programs: []*program.Program{writer.MustBuild(), reader.MustBuild()}}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := system.NewMachine(config.Scaled(2), tsocc.New(tscfg), gen())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Engine.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL1HitPath drives load hits against a warmed Exclusive line
// through the real CorePort interface, advancing the engine over each
// hit's latency. The acceptance bar is 0 allocs/op: no closures, no
// event churn, no message traffic.
func BenchmarkL1HitPath(b *testing.B) { runOp(b, l1HitPathOp(b)) }

// filledCache returns a Table 2 L1 array with every way installed once,
// so each way already owns its slab block.
func filledCache(tb testing.TB) *memsys.Cache[struct{}] {
	cfg := config.Table2()
	c := memsys.NewCache[struct{}](cfg.L1Size, cfg.L1Ways)
	for addr := uint64(0); addr < uint64(cfg.L1Size); addr += config.BlockSize {
		w := c.Victim(addr)
		if w == nil || w.Valid {
			tb.Fatalf("fill: no free way for %#x", addr)
		}
		c.Install(w, addr)
	}
	return c
}

// cacheHitBlockOp is the array half of an L1 hit: tag match, then the
// word read through the way's slab block.
func cacheHitBlockOp(tb testing.TB) func() {
	c := filledCache(tb)
	span := uint64(config.Table2().L1Size)
	var i, sink uint64
	return func() {
		addr := i * 8 % span
		i++
		sink += memsys.GetWord(c.Block(c.Lookup(addr)), addr)
	}
}

// BenchmarkCacheHitBlock times cacheHitBlockOp.
func BenchmarkCacheHitBlock(b *testing.B) { runOp(b, cacheHitBlockOp(b)) }

// cacheReinstallOp replaces a line in a full array: every Install lands
// on a way that already holds a block and must clear it in place, not
// take a new one from the slab.
func cacheReinstallOp(tb testing.TB) func() {
	c := filledCache(tb)
	span := uint64(config.Table2().L1Size)
	var i uint64
	return func() {
		addr := span + i*config.BlockSize
		i++
		w := c.Victim(addr)
		c.Install(w, addr)
		memsys.PutWord(c.Block(w), addr, addr)
	}
}

// BenchmarkCacheReinstall times cacheReinstallOp.
func BenchmarkCacheReinstall(b *testing.B) { runOp(b, cacheReinstallOp(b)) }

// synthBenchParams sizes the synthesis and decode benchmarks: the repo
// benchmark's replay_zipf8 shape at a sixth of its length, so one op of
// either is tens of milliseconds.
var synthBenchParams = trace.SynthParams{Cores: 8, OpsPerCore: 50000, Seed: 1}

// BenchmarkTraceSynth measures trace synthesis straight into wire form,
// one sub-benchmark per generator: MB/s of stream bytes produced, with
// allocations — which should be the streams themselves and little else.
// The streams are written on up to GOMAXPROCS goroutines, so -cpu 1
// times one stream after another.
func BenchmarkTraceSynth(b *testing.B) {
	gens := []struct {
		name string
		gen  func(trace.SynthParams) *trace.Trace
	}{{"zipf", trace.Zipf}, {"migratory", trace.Migratory}, {"scan", trace.Scan}}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			size := 0
			for _, s := range g.gen(synthBenchParams).Streams {
				size += s.Ops.Size()
			}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.gen(synthBenchParams)
			}
			b.ReportMetric(float64(size)/float64(synthBenchParams.Cores*(synthBenchParams.OpsPerCore+1)), "bytes/traceop")
		})
	}
}

// BenchmarkTraceDecode measures Decode on a synthesized Zipf encoding —
// unlike the recorded ssca2 trace of BenchmarkTraceCodec, long enough
// (2.4 MB) that the per-op validating scan is all there is to see. It
// must report a handful of allocations however long the input: decoding
// keeps the bytes it checked and expands nothing.
func BenchmarkTraceDecode(b *testing.B) {
	data, err := trace.Encode(trace.Zipf(synthBenchParams))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
