// Command tsocc-litmus runs the diy-style TSO litmus suite (§4.3)
// against every protocol configuration and reports violations.
//
// Usage:
//
//	tsocc-litmus -iters 50 -cores 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/litmus"
)

func main() {
	harness.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, runs the litmus suite on the selected protocols and
// prints one line per test to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tsocc-litmus", flag.ExitOnError)
	iters := fs.Int("iters", 40, "iterations per test per protocol")
	cores := fs.Int("cores", 4, "core count (tests use up to 4 threads)")
	seed := fs.Uint64("seed", 0xC0FFEE, "perturbation seed")
	protoList := fs.String("proto", "", "comma-separated protocol subset (registry names; default all)")
	verbose := fs.Bool("v", false, "print outcome histograms")
	listP := fs.Bool("list-protocols", false, "list registered protocols and exit")
	rf := harness.BindRunFlags(fs, harness.FaultFlags|harness.ObsFlags)
	fs.Parse(args)

	if *listP {
		harness.ListProtocols(out)
		return nil
	}

	if *iters < 1 {
		// Zero iterations would print the all-clear having run nothing.
		return harness.Usagef("-iters must be at least 1 (got %d)", *iters)
	}
	protos := coherence.Protocols()
	if *protoList != "" {
		protos = protos[:0]
		for _, name := range strings.Split(*protoList, ",") {
			p, err := coherence.ProtocolByName(strings.TrimSpace(name))
			if err != nil {
				return harness.UsageError{Err: err}
			}
			protos = append(protos, p)
		}
	}

	cfg := config.Small(*cores)
	if err := cfg.Validate(); err != nil {
		return harness.Usagef("-cores %d: %w", *cores, err)
	}
	suite := litmus.Suite()
	for _, t := range suite {
		if len(t.Threads) > *cores {
			return harness.Usagef("-cores %d: litmus test %s needs %d cores", *cores, t.Name, len(t.Threads))
		}
	}
	// One registry/timeline accumulates over every test × iteration
	// (litmus iterations are sequential, so sharing is race-free);
	// same-named series across runs merge at dump time.
	if err := rf.Apply(&cfg); err != nil {
		return err
	}
	failed := false
	for _, proto := range protos {
		fmt.Fprintf(out, "== %s ==\n", proto.Name())
		for _, t := range suite {
			res, err := litmus.Run(t, proto, cfg, *iters, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "  %-12s ERROR: %v\n", t.Name, err)
				failed = true
				continue
			}
			status := "ok"
			if !res.Ok() {
				status = fmt.Sprintf("TSO VIOLATION %v", res.Violations)
				failed = true
			}
			extra := ""
			if t.Interesting != nil {
				if res.SawInteresting {
					extra = " (relaxed outcome observed)"
				} else {
					extra = " (relaxed outcome not observed)"
				}
			}
			fmt.Fprintf(out, "  %-12s %d outcomes, %s%s\n", t.Name, len(res.Outcomes), status, extra)
			if *verbose {
				fmt.Fprintln(out, res)
			}
		}
	}
	if werr := rf.WriteObs(cfg.Obs, 0); werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		failed = true
	}
	if failed {
		return errors.New("litmus suite failed")
	}
	fmt.Fprintln(out, "\nall protocols satisfy TSO on the litmus suite")
	return nil
}
