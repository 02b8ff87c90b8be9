package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables for
// the driver; TestDeclaredMetricsMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by

	// exact marks simulated results: two runs of the same seed must agree
	// to the last digit, so -compare uses a bound of 0 when seeds match.
	// The declared bound only has to cover the seed-to-seed variation of
	// the input the driver's spread check sees.
	exact bool
}

var endToEndDefs = []metricDef{
	{name: "host_ns_per_sim_cycle", unit: "ns", better: "lower", bound: 0.25},
	{name: "sim_minstr_per_host_s", unit: "Minstr/s", better: "higher", bound: 0.25},
	{name: "sim_cycles", unit: "cycles", better: "lower", bound: 0.05, exact: true},
	{name: "sim_flit_hops", unit: "flit-hops", better: "lower", bound: 0.05, exact: true},
	{name: "host_heap_mb", unit: "MiB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayerDefs = []metricDef{
	{name: "sim.self_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "sim.self_share_pct", unit: "%", better: "lower"},
	{name: "sim.ticks_per_cycle", unit: "count", better: "lower"},
	{name: "sim.idle_skipped_pct", unit: "%", better: "higher"},
	{name: "sim.sharded_ns_per_sim_cycle", unit: "ns", better: "lower"},
	{name: "sim.sharded_spread_pct", unit: "%", better: "lower"},

	{name: "cpu.self_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "cpu.self_share_pct", unit: "%", better: "lower"},
	{name: "cpu.ticks", unit: "count", better: "lower"},
	{name: "cpu.port_calls", unit: "count", better: "lower"},
	{name: "cpu.port_reject_pct", unit: "%", better: "lower"},
	{name: "cpu.ipc", unit: "instr/cycle", better: "higher"},

	{name: "l1.self_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "l1.self_share_pct", unit: "%", better: "lower"},
	{name: "l1.port_ns_per_call", unit: "ns", better: "lower"},
	{name: "l1.ticks", unit: "count", better: "lower"},
	{name: "l1.delivers", unit: "count", better: "lower"},
	{name: "l1.accesses", unit: "count", better: "lower"},
	{name: "l1.miss_pct", unit: "%", better: "lower"},
	{name: "l1.self_inv_per_kaccess", unit: "1/kaccess", better: "lower"},

	{name: "l2.self_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "l2.self_share_pct", unit: "%", better: "lower"},
	{name: "l2.ns_per_deliver", unit: "ns", better: "lower"},
	{name: "l2.ticks", unit: "count", better: "lower"},
	{name: "l2.delivers", unit: "count", better: "lower"},
	{name: "l2.sends", unit: "count", better: "lower"},

	{name: "mesh.self_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "mesh.self_share_pct", unit: "%", better: "lower"},
	{name: "mesh.ns_per_msg", unit: "ns", better: "lower"},
	{name: "mesh.ticks", unit: "count", better: "lower"},
	{name: "mesh.msgs", unit: "count", better: "lower"},
	{name: "mesh.flit_hops_per_msg", unit: "flit-hops", better: "lower"},

	{name: "memsys.self_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "memsys.reads", unit: "count", better: "lower"},
	{name: "memsys.writes", unit: "count", better: "lower"},

	{name: "trace.replay_self_ns_per_op", unit: "ns", better: "lower"},
	{name: "trace.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "trace.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "trace.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "trace.synth_s", unit: "s", better: "lower"},

	{name: "workloads.gen_s", unit: "s", better: "lower"},
	{name: "system.build_s", unit: "s", better: "lower"},
	{name: "system.prewarm_s", unit: "s", better: "lower"},

	{name: "host.alloc_bytes_per_kcycle", unit: "B/kcycle", better: "lower"},
	{name: "host.mallocs_per_kcycle", unit: "1/kcycle", better: "lower"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},

	{name: "tracer.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "tracer.span_cost_ns", unit: "ns", better: "lower"},
	{name: "tracer.spans", unit: "count", better: "lower"},
}

// stat is one reported metric: the median over its samples, with the
// range and sample count beside it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// samples collects per-run values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// summarise reduces samples to one stat per declared metric. A declared
// metric without samples, or samples under an undeclared name, is a bug
// in this package and is reported as an error.
func (s samples) summarise(defs []metricDef) (map[string]stat, error) {
	out := make(map[string]stat, len(defs))
	for _, d := range defs {
		v := s[d.name]
		if len(v) == 0 {
			return nil, fmt.Errorf("metric %s was declared but not measured", d.name)
		}
		st := stat{Value: median(v), Unit: d.unit, Min: v[0], Max: v[0], N: len(v)}
		for _, x := range v {
			st.Min = min(st.Min, x)
			st.Max = max(st.Max, x)
		}
		out[d.name] = st
	}
	for name := range s {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but not declared", name)
		}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndSamples turns untraced runs into end-to-end samples.
func endToEndSamples(runs []run) samples {
	s := samples{}
	for _, r := range runs {
		s.add("host_ns_per_sim_cycle", float64(r.wall.Nanoseconds())/float64(r.fp.Cycles))
		s.add("sim_minstr_per_host_s", float64(r.fp.Instrs)/1e6/r.wall.Seconds())
		s.add("sim_cycles", float64(r.fp.Cycles))
		s.add("sim_flit_hops", float64(r.fp.FlitHops))
		s.add("host_heap_mb", float64(r.heapBytes)/(1<<20))
		s.add("setup_s", r.setup().Seconds())
	}
	return s
}

// perLayerSamples builds the per-layer samples: layer self times and
// boundary counts from the traced runs, set-up, codec and Go-runtime
// figures from the untraced ones, and the informational sharded leg.
// Layers a workload does not exercise (the trace layer outside replay,
// internal/cpu in replay, the sharded leg outside miss64) report 0.
func perLayerSamples(untraced, traced, sharded []run, cost spanCost) samples {
	s := samples{}
	var untracedWall []float64
	for _, r := range untraced {
		untracedWall = append(untracedWall, float64(r.wall))
		kcyc := float64(r.fp.Cycles) / 1000
		s.add("host.alloc_bytes_per_kcycle", float64(r.allocBytes)/kcyc)
		s.add("host.mallocs_per_kcycle", float64(r.mallocs)/kcyc)
		s.add("host.gc_cycles", float64(r.gcCycles))
		s.add("host.gc_pause_ms", float64(r.gcPause.Nanoseconds())/1e6)
		s.add("workloads.gen_s", r.in.gen.Seconds())
		s.add("system.build_s", r.buildTime.Seconds())
		s.add("system.prewarm_s", r.prewarmTime.Seconds())
		mb := float64(r.in.traceBytes) / 1e6
		s.add("trace.encode_mb_per_s", ratio(mb, r.in.encode.Seconds()))
		s.add("trace.decode_mb_per_s", ratio(mb, r.in.decode.Seconds()))
		s.add("trace.bytes_per_op", ratio(float64(r.in.traceBytes), float64(r.in.traceOps)))
		s.add("trace.synth_s", r.in.synth.Seconds())
	}
	for _, r := range traced {
		t := r.tracer
		ns := func(kinds ...kind) float64 {
			var d float64
			for _, k := range kinds {
				d += t.corrected(k, cost)
			}
			return d
		}
		count := func(kinds ...kind) float64 {
			var n int64
			for _, k := range kinds {
				n += t.spans[k]
			}
			return float64(n)
		}
		cyc := float64(r.fp.Cycles)
		self := map[string]float64{
			"sim":    ns(kSimRun),
			"cpu":    ns(kCPUTick),
			"l1":     ns(kL1Tick, kL1Deliver, kL1Port),
			"l2":     ns(kL2Tick, kL2Deliver),
			"mesh":   ns(kMeshTick, kMeshSend),
			"memsys": ns(kMem),
			"trace":  ns(kReplayTick),
		}
		var total float64
		for _, v := range self {
			total += v
		}
		for _, l := range []string{"sim", "cpu", "l1", "l2", "mesh"} {
			s.add(l+".self_ns_per_cycle", self[l]/cyc)
			s.add(l+".self_share_pct", 100*self[l]/total)
		}
		s.add("memsys.self_ns_per_cycle", self["memsys"]/cyc)
		s.add("trace.replay_self_ns_per_op", ratio(self["trace"], float64(r.in.traceOps)))
		s.add("sim.ticks_per_cycle", count(kMeshTick, kL2Tick, kL1Tick, kCPUTick, kReplayTick)/cyc)
		s.add("sim.idle_skipped_pct", 100*float64(r.idleSkipped)/cyc)

		s.add("cpu.ticks", count(kCPUTick, kReplayTick))
		s.add("cpu.port_calls", count(kL1Port))
		s.add("cpu.port_reject_pct", 100*ratio(float64(t.portRejects), count(kL1Port)))
		s.add("cpu.ipc", float64(r.fp.Instrs)/cyc)

		s.add("l1.port_ns_per_call", ratio(ns(kL1Port), count(kL1Port)))
		s.add("l1.ticks", count(kL1Tick))
		s.add("l1.delivers", count(kL1Deliver))
		s.add("l1.accesses", float64(r.l1Accesses))
		s.add("l1.miss_pct", 100*ratio(float64(r.fp.L1Misses), float64(r.l1Accesses)))
		s.add("l1.self_inv_per_kaccess", 1000*ratio(float64(r.fp.SelfInv), float64(r.l1Accesses)))

		s.add("l2.ns_per_deliver", ratio(ns(kL2Deliver), count(kL2Deliver)))
		s.add("l2.ticks", count(kL2Tick))
		s.add("l2.delivers", count(kL2Deliver))
		s.add("l2.sends", float64(t.l2Sends))

		s.add("mesh.ns_per_msg", ratio(ns(kMeshTick, kMeshSend), float64(r.fp.Msgs)))
		s.add("mesh.ticks", count(kMeshTick))
		s.add("mesh.msgs", float64(r.fp.Msgs))
		s.add("mesh.flit_hops_per_msg", ratio(float64(r.fp.FlitHops), float64(r.fp.Msgs)))

		s.add("memsys.reads", float64(r.memReads))
		s.add("memsys.writes", float64(r.memWrites))

		s.add("tracer.overhead_ratio", float64(r.wall)/median(untracedWall))
		s.add("tracer.span_cost_ns", cost.total())
		s.add("tracer.spans", float64(t.totalSpans()))
	}
	if len(sharded) == 0 {
		s.add("sim.sharded_ns_per_sim_cycle", 0)
		s.add("sim.sharded_spread_pct", 0)
		return s
	}
	var v []float64
	for _, r := range sharded {
		v = append(v, float64(r.wall.Nanoseconds())/float64(r.fp.Cycles))
	}
	s["sim.sharded_ns_per_sim_cycle"] = v
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	s.add("sim.sharded_spread_pct", 100*(hi-lo)/median(v))
	return s
}
