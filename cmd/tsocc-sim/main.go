// Command tsocc-sim runs one benchmark from the Table 3 suite on one
// protocol configuration and prints the run's statistics.
//
// Usage:
//
//	tsocc-sim -bench intruder -proto TSO-CC-4-12-3 -cores 32 -scale 1
//	tsocc-sim -list-workloads
//	tsocc-sim -list-protocols
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/shrink"
	"repro/internal/system"
	"repro/internal/workloads"
)

func main() {
	harness.Exit(run(os.Args[1:]))
}

// run parses args, runs the selected benchmark (or shrinks a failing
// fault-injected run) and prints the outcome.
func run(args []string) error {
	fs := flag.NewFlagSet("tsocc-sim", flag.ExitOnError)
	bench := fs.String("bench", "intruder", "benchmark name (see -list-workloads)")
	proto := fs.String("proto", "TSO-CC-4-12-3", "protocol configuration (see -list-protocols)")
	cores := fs.Int("cores", 32, "core count")
	scale := fs.Int("scale", 1, "workload size multiplier")
	seed := fs.Uint64("seed", 1, "workload seed")
	faultFrom := fs.Uint64("fault-from", 0, "fault decision-counter window start (shrinker replay)")
	faultUntil := fs.Uint64("fault-until", 0, "fault decision-counter window end, exclusive (0 = unbounded)")
	doShrink := fs.Bool("shrink", false, "reduce a failing fault-injected run to a minimal (scale, fault-window) reproducer")
	listW := fs.Bool("list-workloads", false, "list workloads (registry + synthetic extras) and exit")
	listP := fs.Bool("list-protocols", false, "list registered protocols and exit")
	rf := harness.BindRunFlags(fs, harness.FaultFlags|harness.ObsFlags)
	fs.Parse(args)

	if *listW || *listP {
		if *listW {
			harness.ListWorkloads(os.Stdout)
		}
		if *listP {
			harness.ListProtocols(os.Stdout)
		}
		return nil
	}

	chosen, err := coherence.ProtocolByName(*proto)
	if err != nil {
		return harness.Usagef("unknown protocol %q (see -list-protocols)", *proto)
	}
	e := workloads.ByName(*bench)
	if e == nil {
		return harness.Usagef("unknown benchmark %q (see -list-workloads)", *bench)
	}

	cfg := config.Scaled(*cores)
	if err := rf.Apply(&cfg); err != nil {
		return err
	}
	cfg.FaultFrom = *faultFrom
	cfg.FaultUntil = *faultUntil

	if *doShrink {
		if cfg.FaultProfile == "" {
			return harness.Usagef("-shrink needs a fault profile (-faults)")
		}
		return runShrink(cfg, chosen, e, *bench, *scale, *seed)
	}

	w, err := harness.Gen(cfg, e, *scale, *seed)
	if err != nil {
		return err
	}
	res, err := system.Run(cfg, chosen, w)
	// Dump the armed sinks even on failure: a deadlocked or
	// cycle-limited run's partial timeline is exactly what forensics
	// wants to look at.
	var final int64
	if res != nil {
		final = int64(res.Cycles)
	}
	if werr := rf.WriteObs(cfg.Obs, final); werr != nil {
		if err == nil {
			return werr
		}
		fmt.Fprintln(os.Stderr, werr)
	}
	if err != nil {
		return fmt.Errorf("simulation failed: %w", err)
	}
	fmt.Print(res.Summary())
	fmt.Printf("\nself-invalidation causes:\n")
	for c := coherence.SelfInvCause(0); c < coherence.NumSelfInvCauses; c++ {
		fmt.Printf("  %-28s %d\n", c, res.L1.SelfInvEvents[c].Value())
	}
	if res.CheckErr != nil {
		return fmt.Errorf("FUNCTIONAL CHECK FAILED: %w", res.CheckErr)
	}
	fmt.Println("\nfunctional check: ok")
	return nil
}

// runShrink reduces a failing fault-injected run to a minimal
// (workload scale, fault-window) reproducer and prints the replay
// command line. Shrink probes force the oracles on and observe nothing.
func runShrink(cfg config.System, proto system.Protocol, e *workloads.Entry, bench string, scale int, seed uint64) error {
	cfg.Checks = true
	cfg.Obs = nil
	var probeErr error
	probe := func(scale int, from, until uint64) shrink.Outcome {
		c := cfg
		c.FaultFrom, c.FaultUntil = from, until
		w, err := harness.Gen(c, e, scale, seed)
		if err != nil {
			probeErr = err
			return shrink.Outcome{}
		}
		m, err := system.NewMachine(c, proto, w)
		if err != nil {
			probeErr = fmt.Errorf("shrink probe failed to build: %w", err)
			return shrink.Outcome{}
		}
		return probeOutcome(m, w.Check)
	}
	fmt.Printf("shrinking %s on %s with faults %q (seed %d)...\n", bench, proto.Name(), cfg.FaultProfile, cfg.FaultSeed)
	r, err := shrink.Shrink(shrink.Input{Scale: scale, Run: probe})
	if probeErr != nil {
		return probeErr
	}
	if err != nil {
		return err
	}
	fmt.Printf("reduced to scale=%d fault window=[%d,%d) after %d probes\n", r.Scale, r.From, r.Until, r.Probes)
	fmt.Printf("violation [%s]: %s\n", r.Kind, r.Detail)
	fmt.Println("repro:", r.CommandLine(bench, proto.Name(), cfg.Cores, seed, cfg.FaultProfile, cfg.FaultSeed))
	return nil
}

// probeOutcome executes one shrink probe's machine and classifies it:
// the first oracle violation, else an engine error, else a failed
// functional check.
func probeOutcome(m *system.Machine, check func(program.MemReader) error) shrink.Outcome {
	_, rerr := m.Execute()
	out := shrink.Outcome{MaxCounter: m.Injector().MaxCounter()}
	if viols, n := m.Checks().Violations(); n > 0 {
		out.Failed, out.Kind, out.Detail = true, viols[0].Kind, viols[0].String()
	} else if rerr != nil {
		out.Failed, out.Kind, out.Detail = true, "error", rerr.Error()
	} else if check != nil {
		if cerr := check(m.Reader()); cerr != nil {
			out.Failed, out.Kind, out.Detail = true, "functional", cerr.Error()
		}
	}
	return out
}
