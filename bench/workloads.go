package main

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/mesi"
	"repro/internal/program"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// spec is one benchmark workload: an input generator, a machine
// geometry and a protocol. The names are fixed — later issues cite
// them — and the sizes put one timed run at about 2 s on the 2-vCPU
// reference host, far past the cold-start phase the scale-1 BENCH_*.json
// snapshots measure (see README.md).
type spec struct {
	name string
	why  string

	proto func() system.Protocol
	cfg   func() config.System

	// Program workloads: a Table 3 kernel at threads × scale.
	// Replay workloads (program == ""): a synthesized Zipf trace of
	// opsPerCore operations per core, round-tripped through the codec.
	program    string
	threads    int
	scale      int
	opsPerCore int

	// shardedLeg adds the informational sim.sharded_* runs to the traced
	// pass (the workload with enough components to shard).
	shardedLeg bool
}

// input describes the workload's input for the report.
func (s spec) input() string {
	if s.program != "" {
		return fmt.Sprintf("%s, Threads %d, Scale %d", s.program, s.threads, s.scale)
	}
	return fmt.Sprintf("trace.Zipf, OpsPerCore %d, through Encode/Decode", s.opsPerCore)
}

func tsocc4123() system.Protocol { return tsocc.New(config.C12x3()) }
func mesiProto() system.Protocol { return mesi.New() }
func scaled8() config.System     { return config.Scaled(8) }
func large64() config.System     { return config.Large(64) }

// suite lists the six workloads in report order.
var suite = []spec{
	{
		name: "hit8", program: "lu-cont", threads: 8, scale: 512,
		proto: tsocc4123, cfg: scaled8,
		why: "3% L1 miss rate: core and L1 hit path do the work, so directory/mesh changes must not move it",
	},
	{
		name: "miss8", program: "canneal", threads: 8, scale: 512,
		proto: tsocc4123, cfg: scaled8,
		why: "60% miss rate, no locality: L1 miss path, directory/TxTable and mesh share the host time; headline for coherence-path work",
	},
	{
		name: "miss8_mesi", program: "canneal", threads: 8, scale: 512,
		proto: mesiProto, cfg: scaled8,
		why: "miss8's input through MESI on the same shared framework: shows a shared change tuned for one protocol; gives the paper's ratios",
	},
	{
		name: "sync8", program: "x264", threads: 8, scale: 1536,
		proto: tsocc4123, cfg: scaled8,
		why: "flag hand-offs between pipeline stages, few idle cycles: the wake-set engine's worst case, engine dispatch is the largest share",
	},
	{
		name: "miss64", program: "canneal", threads: 64, scale: 32,
		proto: tsocc4123, cfg: large64, shardedLeg: true,
		why: "miss8's code at 8x the components: 193 tickers, 8x8 mesh contention, large host footprint, the only visible setup_s",
	},
	{
		name: "replay_zipf8", opsPerCore: 300000,
		proto: tsocc4123, cfg: scaled8,
		why: "trace.ReplayCore instead of cpu.Core on hot write-shared blocks, plus the codec: the only workload the trace layer works in",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range suite {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// input is one generated workload input. Exactly one of w and tr is set.
type input struct {
	w  *program.Workload
	tr *trace.Trace
}

// inputCost is what generating an input took on the host.
type inputCost struct {
	gen                   time.Duration // workloads generator (program inputs)
	synth, encode, decode time.Duration // trace synthesis and codec round trip (replay inputs)
	traceBytes, traceOps  int
}

func (c inputCost) total() time.Duration { return c.gen + c.synth + c.encode + c.decode }

// generate builds the workload's input. The seed reaches only
// workloads.Params.Seed / trace.SynthParams.Seed.
func (s spec) generate(seed uint64) (input, inputCost, error) {
	start := time.Now()
	if s.program != "" {
		e := workloads.ByName(s.program)
		if e == nil {
			return input{}, inputCost{}, fmt.Errorf("%s: unknown program %q", s.name, s.program)
		}
		w := e.Gen(workloads.Params{Threads: s.threads, Scale: s.scale, Seed: seed})
		return input{w: w}, inputCost{gen: time.Since(start)}, nil
	}
	synth := trace.Zipf(trace.SynthParams{Cores: s.cfg().Cores, OpsPerCore: s.opsPerCore, Seed: seed})
	t1 := time.Now()
	data, err := trace.Encode(synth)
	if err != nil {
		return input{}, inputCost{}, fmt.Errorf("%s: encode: %w", s.name, err)
	}
	t2 := time.Now()
	tr, err := trace.Decode(data)
	if err != nil {
		return input{}, inputCost{}, fmt.Errorf("%s: decode: %w", s.name, err)
	}
	return input{tr: tr}, inputCost{
		synth: t1.Sub(start), encode: t2.Sub(t1), decode: time.Since(t2),
		traceBytes: len(data), traceOps: tr.Ops(),
	}, nil
}

// build wires the untraced machine through the system package — the
// path every CLI uses. shards > 1 selects the sharded engine (the
// informational sim.sharded_* leg only).
func (s spec) build(in input, shards int) (*system.Machine, error) {
	cfg := s.cfg()
	cfg.Shards = shards
	if in.tr != nil {
		return system.NewReplayMachine(cfg, s.proto(), in.tr)
	}
	return system.NewMachine(cfg, s.proto(), in.w)
}
