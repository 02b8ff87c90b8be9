// Command tsocc-trace drives the memory-trace subsystem: it records
// benchmark runs into compact binary trace files, replays them through
// any registered protocol, synthesizes parameterized access-pattern
// traces, and inspects trace files.
//
// Usage:
//
//	tsocc-trace record -bench x264 -proto TSO-CC-4-12-3 -cores 8 -o x264.trc
//	tsocc-trace replay -i x264.trc
//	tsocc-trace replay -i x264.trc -proto MESI            # cross-protocol
//	tsocc-trace synth  -kind zipf -cores 8 -ops 4096 -o zipf.trc
//	tsocc-trace info   -i x264.trc
//
// Replaying a trace on its recording protocol and geometry reproduces
// the original run bit for bit (record with -stats A, replay with
// -stats B: the files diff clean — this is the CI trace gate). Replay
// on a different protocol is an elastic re-execution preserving op
// order and compute gaps.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workloads"

	// Protocol packages register themselves; importing them populates
	// the registry this command resolves -proto against.
	_ "repro/internal/mesi"
	_ "repro/internal/tsocc"
)

func main() {
	harness.Exit(run(os.Args[1:]))
}

// run dispatches to the subcommand args name.
func run(args []string) error {
	if len(args) == 0 {
		return harness.Usagef("%s", usage)
	}
	switch args[0] {
	case "record":
		return cmdRecord(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "synth":
		return cmdSynth(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(os.Stderr, usage)
		return nil
	}
	return harness.Usagef("unknown subcommand %q\n%s", args[0], usage)
}

const usage = `usage: tsocc-trace <record|replay|synth|info> [flags]

  record  run a benchmark with capture on and write the trace file
  replay  re-execute a trace file through a coherence protocol
  synth   generate a synthetic access-pattern trace (zipf|migratory|scan)
  info    print a trace file's header and stream statistics

run "tsocc-trace <subcommand> -h" for flags`

// writeStats writes a run summary to path (the record/replay diff gate).
func writeStats(path string, res *system.Result) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(res.Summary()), 0o644)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "x264", "benchmark name (see -list-workloads)")
	proto := fs.String("proto", "TSO-CC-4-12-3", "protocol to record under")
	cores := fs.Int("cores", 8, "core count")
	scale := fs.Int("scale", 1, "workload size multiplier")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "", "output trace file (required)")
	stats := fs.String("stats", "", "also write the run summary to this file")
	listW := fs.Bool("list-workloads", false, "list workloads and exit")
	listP := fs.Bool("list-protocols", false, "list protocols and exit")
	rf := harness.BindRunFlags(fs, harness.ObsFlags)
	fs.Parse(args)
	if handleLists(*listW, *listP) {
		return nil
	}
	if *out == "" {
		return harness.Usagef("record: -o is required")
	}
	p, err := coherence.ProtocolByName(*proto)
	if err != nil {
		return harness.UsageError{Err: err}
	}
	e := workloads.ByName(*bench)
	if e == nil {
		return harness.Usagef("unknown benchmark %q (see -list-workloads)", *bench)
	}
	cfg := config.Scaled(*cores)
	if err := rf.Apply(&cfg); err != nil {
		return err
	}
	w, err := harness.Gen(cfg, e, *scale, *seed)
	if err != nil {
		return err
	}
	res, tr, err := system.RunRecorded(cfg, p, w, *seed)
	if werr := rf.WriteObs(cfg.Obs, resultCycles(res)); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	if res.CheckErr != nil {
		return fmt.Errorf("functional check failed: %w", res.CheckErr)
	}
	n, err := writeTrace(*out, tr)
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	fmt.Printf("\nwrote %s: %d ops across %d streams, %d bytes (%.2f bytes/op)\n",
		*out, tr.Ops(), len(tr.Streams), n, float64(n)/float64(tr.Ops()))
	return writeStats(*stats, res)
}

// writeTrace encodes once, writes the file, and reports the byte size.
func writeTrace(path string, tr *trace.Trace) (int, error) {
	data, err := trace.Encode(tr)
	if err != nil {
		return 0, err
	}
	return len(data), os.WriteFile(path, data, 0o644)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	proto := fs.String("proto", "", "protocol to replay on (default: the recording protocol)")
	cores := fs.Int("cores", 0, "core count override (default: recorded geometry)")
	stats := fs.String("stats", "", "also write the run summary to this file")
	rf := harness.BindRunFlags(fs, harness.FaultFlags|harness.ObsFlags)
	fs.Parse(args)
	if *in == "" {
		return harness.Usagef("replay: -i is required")
	}
	if *cores < 0 {
		return harness.Usagef("replay: -cores %d must be non-negative (0 = recorded geometry)", *cores)
	}
	// Apply refuses a bad -faults; do so before reading the trace.
	if err := rf.Apply(&config.System{}); err != nil {
		return err
	}
	tr, err := trace.ReadFile(*in)
	if err != nil {
		return err
	}
	name := *proto
	if name == "" {
		name = tr.Meta.Protocol
	}
	p, err := coherence.ProtocolByName(name)
	if err != nil {
		if *proto == "" {
			return fmt.Errorf("trace was recorded under unregistered protocol %q; select one with -proto: %w",
				tr.Meta.Protocol, err)
		}
		return harness.UsageError{Err: err}
	}
	cfg := tr.Meta.Sys
	if err := rf.Apply(&cfg); err != nil {
		return err
	}
	if *cores > 0 {
		cfg.Cores = *cores
		cfg.MeshRows = 0
	}
	res, err := system.Replay(cfg, p, tr)
	if werr := rf.WriteObs(cfg.Obs, resultCycles(res)); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	fmt.Print(res.Summary())
	return writeStats(*stats, res)
}

// resultCycles reports a run's final cycle for the timeline flush (0
// when the run failed before producing a result).
func resultCycles(res *system.Result) int64 {
	if res == nil {
		return 0
	}
	return int64(res.Cycles)
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	kind := fs.String("kind", "zipf", "pattern: zipf | migratory | scan")
	cores := fs.Int("cores", 8, "core count")
	ops := fs.Int("ops", 1024, "memory operations per core")
	seed := fs.Uint64("seed", 1, "generator seed")
	blocks := fs.Int("blocks", 0, "working-set size in cache blocks (0 = pattern default)")
	maxGap := fs.Int64("maxgap", 0, "compute gap upper bound in cycles (0 = default)")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		return harness.Usagef("synth: -o is required")
	}
	// SynthParams reads 0 as "use the default"; a negative value would
	// silently get the default too, so refuse it here.
	if *cores < 0 || *ops < 0 || *blocks < 0 || *maxGap < 0 {
		return harness.Usagef("synth: -cores, -ops, -blocks and -maxgap must be non-negative (0 = default); got %d, %d, %d, %d",
			*cores, *ops, *blocks, *maxGap)
	}
	p := trace.SynthParams{Cores: *cores, OpsPerCore: *ops, Seed: *seed,
		Blocks: *blocks, MaxGap: *maxGap}
	// Refused before anything is allocated: each field's flag is named
	// after it.
	if err := p.Validate(); err != nil {
		fe := err.(*trace.FormatError)
		return harness.Usagef("synth: -%s: %s", fe.Field, fe.Msg)
	}
	var tr *trace.Trace
	switch *kind {
	case "zipf":
		tr = trace.Zipf(p)
	case "migratory":
		tr = trace.Migratory(p)
	case "scan":
		tr = trace.Scan(p)
	default:
		return harness.Usagef("unknown synth kind %q (zipf | migratory | scan)", *kind)
	}
	n, err := writeTrace(*out, tr)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s, %d ops across %d streams, %d bytes (%.2f bytes/op)\n",
		*out, tr.Meta.Workload, tr.Ops(), len(tr.Streams), n, float64(n)/float64(tr.Ops()))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	fs.Parse(args)
	if *in == "" {
		return harness.Usagef("info: -i is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tr, err := trace.Decode(data)
	if err != nil {
		return err
	}
	sys := tr.Meta.Sys
	fmt.Printf("trace %s (%d bytes, %.2f bytes/op)\n", *in,
		len(data), float64(len(data))/float64(max(tr.Ops(), 1)))
	fmt.Printf("  workload:  %s (seed %d)\n", tr.Meta.Workload, tr.Meta.Seed)
	fmt.Printf("  protocol:  %s\n", tr.Meta.Protocol)
	fmt.Printf("  geometry:  %d cores, L1 %dB/%dw, L2 tile %dB/%dw, WB %d, mesh rows %d\n",
		sys.Cores, sys.L1Size, sys.L1Ways, sys.L2TileSize, sys.L2Ways,
		sys.WriteBuffer, sys.MeshRows)
	fmt.Printf("  init mem:  %d words\n", len(tr.InitMem))
	var kinds [config.NumTraceOps]int64
	for _, s := range tr.Streams {
		c := s.Ops.Cursor()
		for op, ok := c.Next(); ok; op, ok = c.Next() {
			kinds[op.Kind]++
		}
	}
	fmt.Printf("  streams:   %d (total %d ops)\n", len(tr.Streams), tr.Ops())
	for _, s := range tr.Streams {
		fmt.Printf("    core %-3d %d ops\n", s.Core, s.Ops.Len())
	}
	fmt.Printf("  op mix:   ")
	for k := config.TraceOp(0); k < config.NumTraceOps; k++ {
		if kinds[k] > 0 {
			fmt.Printf(" %s=%d", k, kinds[k])
		}
	}
	fmt.Println()
	return nil
}

// handleLists serves the shared -list-workloads/-list-protocols flags.
func handleLists(listW, listP bool) bool {
	if listW {
		harness.ListWorkloads(os.Stdout)
	}
	if listP {
		harness.ListProtocols(os.Stdout)
	}
	return listW || listP
}
