// Command tsocc-bench reproduces the paper's evaluation: it runs the
// full benchmark × protocol grid at 32 cores and prints Figures 3–9 (as
// text tables), plus the Table 1 / Figure 2 storage analysis.
//
// Usage:
//
//	tsocc-bench                  # everything
//	tsocc-bench -figure 3        # one figure
//	tsocc-bench -figure 2        # Table 1 at -cores and Figure 2; no simulation
//	tsocc-bench -bench intruder  # restrict benchmarks
//	tsocc-bench -cores 16 -scale 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/storagemodel"
	"repro/internal/system"
	"repro/internal/workloads"
)

func main() {
	harness.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args and prints the selected figures to out.
func run(args []string, out io.Writer) (err error) {
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
	rf := harness.BindRunFlags(fs, harness.FaultFlags)
	fs.Parse(args)

	// Refuse every command-line mistake before anything runs or prints:
	// an unknown figure would select no table.
	if *figure != 0 && (*figure < 2 || *figure > 9) {
		return harness.Usagef("-figure %d: want 2-9, or 0 for all", *figure)
	}
	cfg := config.Scaled(*cores)
	if err := harness.ValidateSize(cfg, *scale); err != nil {
		return err
	}
	if err := rf.Apply(&cfg); err != nil {
		return err
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
			harness.ListWorkloads(out)
		}
		if *listProtos {
			harness.ListProtocols(out)
		}
		return nil
	}
	var protos []system.Protocol
	if *protoList != "" {
		for _, name := range strings.Split(*protoList, ",") {
			p, err := coherence.ProtocolByName(strings.TrimSpace(name))
			if err != nil {
				return harness.UsageError{Err: err}
			}
			protos = append(protos, p)
		}
	}

	var benches []string
	if *benchList != "" {
		benches = strings.Split(*benchList, ",")
	}
	for _, b := range benches {
		if workloads.ByName(b) == nil {
			return harness.Usagef("-bench: unknown benchmark %q (see -list-workloads)", b)
		}
	}

	// Storage figures need no simulation.
	if *figure == 2 {
		printStorage(out, *cores)
		return nil
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
		fmt.Fprintln(out, grid.Figure3())
	}
	if show(4) {
		fmt.Fprintln(out, grid.Figure4())
	}
	if show(5) {
		fmt.Fprintln(out, grid.Figure5())
	}
	if show(6) {
		fmt.Fprintln(out, grid.Figure6())
	}
	if show(7) {
		fmt.Fprintln(out, grid.Figure7())
	}
	if show(8) {
		fmt.Fprintln(out, grid.Figure8())
	}
	if show(9) {
		fmt.Fprintln(out, grid.Figure9())
	}
	if *figure == 0 {
		printStorage(out, *cores)
		fmt.Fprintln(out, grid.SummaryHighlights())
	}
	return nil
}

// printStorage prints the storage analysis, which needs no simulation:
// Table 1's bit accounting at cores, then Figure 2's overhead sweep
// over core counts.
func printStorage(out io.Writer, cores int) {
	fmt.Fprintln(out, storagemodel.Table1(cores))
	fmt.Fprintln(out, storagemodel.Figure2([]int{8, 16, 32, 48, 64, 80, 96, 112, 128}))
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
