// Command tsocc-litmus runs the diy-style TSO litmus suite (§4.3)
// against every protocol configuration and reports violations.
//
// Usage:
//
//	tsocc-litmus -iters 50 -cores 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/obs"
)

func main() {
	iters := flag.Int("iters", 40, "iterations per test per protocol")
	cores := flag.Int("cores", 4, "core count (tests use up to 4 threads)")
	seed := flag.Uint64("seed", 0xC0FFEE, "perturbation seed")
	faultSpec := flag.String("faults", "", "fault-injection profile(s): jitter, pressure, burst, evict, reset-storm, victim; parameterized name:key=val and composed with + or , (empty = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed")
	checks := flag.Bool("checks", false, "enable runtime invariant oracles (SWMR, value, TSO order)")
	shards := flag.Int("shards", 0, "engine shards (0 = auto from GOMAXPROCS, 1 = single-threaded)")
	protoList := flag.String("proto", "", "comma-separated protocol subset (registry names; default all)")
	verbose := flag.Bool("v", false, "print outcome histograms")
	listW := flag.Bool("list-workloads", false, "list workloads (registry + synthetic extras) and exit")
	listP := flag.Bool("list-protocols", false, "list registered protocols and exit")
	metricsOut := flag.String("metrics", "", "write the metrics-registry dump (accumulated across all tests) to this file (.json = JSON, else text)")
	timelineOut := flag.String("timeline", "", "write a Chrome trace-event timeline (Perfetto / chrome://tracing) to this file")
	flag.Parse()

	if *listW || *listP {
		if *listW {
			harness.ListWorkloads(os.Stdout)
		}
		if *listP {
			harness.ListProtocols(os.Stdout)
		}
		return
	}

	if *iters < 1 {
		// Zero iterations would print the all-clear having run nothing.
		fmt.Fprintf(os.Stderr, "-iters must be at least 1 (got %d)\n", *iters)
		os.Exit(2)
	}
	protos := coherence.Protocols()
	if *protoList != "" {
		protos = protos[:0]
		for _, name := range strings.Split(*protoList, ",") {
			p, err := coherence.ProtocolByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			protos = append(protos, p)
		}
	}

	cfg := config.Small(*cores)
	cfg.FaultProfile = *faultSpec
	cfg.FaultSeed = *faultSeed
	cfg.Checks = *checks
	cfg.Shards = *shards
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	// One registry/timeline accumulates over every test × iteration
	// (litmus iterations are sequential, so sharing is race-free);
	// same-named series across runs merge at dump time.
	cfg.Obs = obs.FromPaths(*metricsOut, *timelineOut)
	failed := false
	for _, proto := range protos {
		fmt.Printf("== %s ==\n", proto.Name())
		for _, t := range litmus.Suite() {
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
			fmt.Printf("  %-12s %d outcomes, %s%s\n", t.Name, len(res.Outcomes), status, extra)
			if *verbose {
				fmt.Println(res)
			}
		}
	}
	if werr := cfg.Obs.WriteFiles(*metricsOut, *timelineOut, 0); werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("\nall protocols satisfy TSO on the litmus suite")
}
