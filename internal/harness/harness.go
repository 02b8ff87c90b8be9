// Package harness drives the paper's evaluation: it runs the benchmark ×
// protocol grid and renders each of Figures 3–9 as a text table, with
// results normalized against the MESI baseline exactly as the paper
// plots them.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/program"
	"repro/internal/system"
	"repro/internal/workloads"

	// Protocol packages register themselves; importing them populates
	// the registry this harness enumerates.
	_ "repro/internal/mesi"
	_ "repro/internal/tsocc"
)

// Protocols returns every registered protocol configuration — the seven
// evaluated in §4.2/§5 — in the paper's plotting order. The list comes
// from the coherence protocol registry, so a newly registered protocol
// package joins every grid without touching this package.
func Protocols() []system.Protocol {
	return coherence.Protocols()
}

// ListWorkloads writes the canonical workload listing shared by the
// -list-workloads flag of tsocc-sim, tsocc-bench and tsocc-trace: the
// Table 3 registry followed by the synthetic extras, each with its
// suite and one-line description.
func ListWorkloads(w io.Writer) {
	fmt.Fprintln(w, "workloads (Table 3 registry):")
	for _, e := range workloads.Registry() {
		fmt.Fprintf(w, "  %-16s [%-9s] %s\n", e.Name, e.Suite, e.Desc)
	}
	fmt.Fprintln(w, "workloads (synthetic extras, excluded from default grids):")
	for _, e := range workloads.Extras() {
		fmt.Fprintf(w, "  %-16s [%-9s] %s\n", e.Name, e.Suite, e.Desc)
	}
}

// ListProtocols writes the canonical protocol listing shared by every
// CLI's -list-protocols flag: one registry name per line, in plotting
// order (script-friendly).
func ListProtocols(w io.Writer) {
	for _, name := range coherence.ProtocolNames() {
		fmt.Fprintln(w, name)
	}
}

// Gen validates sys and scale and only then generates e's workload, one
// thread per core. Generators size their slices from the thread count
// and panic on a non-positive one, so the CLIs generate through here: a
// bad -cores is reported by config.System.Validate, naming the field,
// before any generator runs.
func Gen(sys config.System, e *workloads.Entry, scale int, seed uint64) (*program.Workload, error) {
	if err := ValidateSize(sys, scale); err != nil {
		return nil, err
	}
	return e.Gen(workloads.Params{Threads: sys.Cores, Scale: scale, Seed: seed}), nil
}

// ValidateSize checks what Gen and RunGrid hand to generators, and
// refuses a bad one as a UsageError naming -cores or -scale. Generators
// run a scale below 1 as scale 1, so it is refused here rather than
// reported under a size that did not run.
func ValidateSize(sys config.System, scale int) error {
	if err := sys.Validate(); err != nil {
		return Usagef("-cores %d: %w", sys.Cores, err)
	}
	if scale < 1 {
		return Usagef("-scale %d: must be at least 1", scale)
	}
	return nil
}

// Grid holds the full result matrix.
type Grid struct {
	Benchmarks []string
	Protocols  []string
	Results    map[string]map[string]*system.Result // benchmark -> protocol
}

// Get returns one cell (nil if the run failed).
func (g *Grid) Get(bench, proto string) *system.Result {
	if m, ok := g.Results[bench]; ok {
		return m[proto]
	}
	return nil
}

// Baseline returns the MESI result for a benchmark.
func (g *Grid) Baseline(bench string) *system.Result { return g.Get(bench, "MESI") }

type gridJob struct {
	bench string
	proto system.Protocol
}

// RunGrid executes every benchmark under every protocol. Runs are
// independent simulations and execute in parallel across host cores.
// Progress lines go to w if non-nil.
func RunGrid(sys config.System, p workloads.Params, protos []system.Protocol,
	benches []string, w io.Writer) (*Grid, error) {

	// Every worker hands p to a generator; validate first (see Gen).
	if err := ValidateSize(sys, p.Scale); err != nil {
		return nil, err
	}
	if len(protos) == 0 {
		protos = Protocols()
	}
	if len(benches) == 0 {
		benches = workloads.Names()
	}
	// Grid legs run concurrently on one shared config value; a single
	// registry/timeline attached to all of them would race (and mix
	// unrelated runs' series), so metric/timeline sinks never apply to
	// grids.
	sys.Obs = nil
	g := &Grid{Benchmarks: benches, Results: make(map[string]map[string]*system.Result)}
	for _, pr := range protos {
		g.Protocols = append(g.Protocols, pr.Name())
	}
	for _, b := range benches {
		g.Results[b] = make(map[string]*system.Result)
	}

	jobs := make(chan gridJob)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(benches)*len(protos) {
		workers = len(benches) * len(protos)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				e := workloads.ByName(job.bench)
				if e == nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("harness: unknown benchmark %q", job.bench)
					}
					mu.Unlock()
					continue
				}
				res, err := system.Run(sys, job.proto, e.Gen(p))
				mu.Lock()
				switch {
				case err != nil && firstErr == nil:
					firstErr = fmt.Errorf("harness: %s on %s: %w", job.bench, job.proto.Name(), err)
				case err == nil && res.CheckErr != nil && firstErr == nil:
					firstErr = fmt.Errorf("harness: %s on %s: functional check: %w",
						job.bench, job.proto.Name(), res.CheckErr)
				case err == nil:
					g.Results[job.bench][job.proto.Name()] = res
					if w != nil {
						fmt.Fprintf(w, "  %-14s %-18s %10d cycles %12d flit-hops\n",
							job.bench, job.proto.Name(), res.Cycles, res.FlitHops)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range benches {
		for _, pr := range protos {
			jobs <- gridJob{bench: b, proto: pr}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}
