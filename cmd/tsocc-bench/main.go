// Command tsocc-bench reproduces the paper's evaluation: it runs the
// full benchmark × protocol grid at 32 cores and prints Figures 3–9 (as
// text tables), plus the Table 1 / Figure 2 storage analysis.
//
// Usage:
//
//	tsocc-bench                  # everything
//	tsocc-bench -figure 3        # one figure
//	tsocc-bench -bench intruder  # restrict benchmarks
//	tsocc-bench -cores 16 -scale 2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/storagemodel"
	"repro/internal/system"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args and prints the selected figures.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("tsocc-bench", flag.ExitOnError)
	cores := fs.Int("cores", 32, "core count")
	scale := fs.Int("scale", 1, "workload size multiplier")
	seed := fs.Uint64("seed", 1, "workload seed")
	figure := fs.Int("figure", 0, "single figure to produce (2-9; 0 = all)")
	benchList := fs.String("bench", "", "comma-separated benchmark subset")
	protoList := fs.String("proto", "", "comma-separated protocol subset (registry names; default all)")
	listProtos := fs.Bool("list-protocols", false, "list registered protocols and exit")
	listWorkloads := fs.Bool("list-workloads", false, "list workloads (registry + synthetic extras) and exit")
	quiet := fs.Bool("q", false, "suppress per-run progress")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on (successful) exit")
	pprofLabels := fs.Bool("pprof-labels", false, "label component ticks for -cpuprofile attribution (adds host-time cost)")
	rf := harness.BindRunFlags(fs, harness.FaultFlags)
	fs.Parse(args)

	// An unknown figure selects no table; refuse it before the grid runs.
	if *figure != 0 && (*figure < 2 || *figure > 9) {
		return fmt.Errorf("-figure %d: want 2-9, or 0 for all", *figure)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(*memprofile)
			}
		}()
	}

	if *listProtos || *listWorkloads {
		if *listWorkloads {
			harness.ListWorkloads(os.Stdout)
		}
		if *listProtos {
			harness.ListProtocols(os.Stdout)
		}
		return nil
	}
	var protos []system.Protocol
	if *protoList != "" {
		for _, name := range strings.Split(*protoList, ",") {
			p, err := coherence.ProtocolByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			protos = append(protos, p)
		}
	}

	// Storage figures need no simulation.
	if *figure == 2 {
		fmt.Println(storagemodel.Figure2([]int{8, 16, 32, 48, 64, 80, 96, 112, 128}))
		return nil
	}

	var benches []string
	if *benchList != "" {
		benches = strings.Split(*benchList, ",")
	}
	cfg := config.Scaled(*cores)
	rf.Apply(&cfg)
	if *pprofLabels {
		cfg.Obs = &obs.Obs{ProfileLabels: true}
	}
	p := workloads.Params{Threads: *cores, Scale: *scale, Seed: *seed}

	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	t0 := time.Now()
	grid, err := harness.RunGrid(cfg, p, protos, benches, progress)
	if err != nil {
		return fmt.Errorf("grid failed: %w", err)
	}
	fmt.Fprintf(os.Stderr, "grid complete in %v\n\n", time.Since(t0).Round(time.Millisecond))

	show := func(n int) bool { return *figure == 0 || *figure == n }
	if show(3) {
		fmt.Println(grid.Figure3())
	}
	if show(4) {
		fmt.Println(grid.Figure4())
	}
	if show(5) {
		fmt.Println(grid.Figure5())
	}
	if show(6) {
		fmt.Println(grid.Figure6())
	}
	if show(7) {
		fmt.Println(grid.Figure7())
	}
	if show(8) {
		fmt.Println(grid.Figure8())
	}
	if show(9) {
		fmt.Println(grid.Figure9())
	}
	if *figure == 0 {
		fmt.Println(storagemodel.Table1(*cores))
		fmt.Println(storagemodel.Figure2([]int{8, 16, 32, 48, 64, 80, 96, 112, 128}))
		fmt.Println(grid.SummaryHighlights())
	}
	return nil
}

// writeHeapProfile writes a heap profile after a forced collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
