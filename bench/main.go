// Command bench is the repository's benchmark: six steady-state
// workloads, end-to-end metrics taken with tracing off, and a per-layer
// split from a separately traced run. It claims no gain; it is the ruler
// later changes are measured with. See README.md in this directory.
//
//	go run ./bench                          # all six workloads, both passes, ~2.5 min
//	go run ./bench -workload hit8,miss8     # a subset
//	go run ./bench -out a.json              # also write the report as JSON
//	go run ./bench -compare a.json b.json   # verdict per (workload, end-to-end metric)
//
// The benchmark driver runs one workload and one pass per invocation
// (--workload W --seed N --seconds S --trace 0|1) and reads the JSON
// object printed as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// minReps is the fewest timed runs a timing median is taken over.
const minReps = 3

// shardedReps is the length of the informational sharded leg.
const shardedReps = 3

type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	Trace      string  `json:"trace"`
	Shards     int     `json:"sharded_leg_shards"`
	WallS      float64 `json:"total_wall_s"`
}

type workloadReport struct {
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

type report struct {
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadReport `json:"workloads"`
	Derived   map[string]stat            `json:"derived,omitempty"`
}

type options struct {
	seed     uint64
	budget   time.Duration // measuring time per workload and pass
	endToEnd bool          // untraced pass
	perLayer bool          // traced pass
	progress io.Writer
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed         = flag.Uint64("seed", 1, "input seed; reaches only workloads.Params.Seed / trace.SynthParams.Seed")
		seconds      = flag.Float64("seconds", 10, "measuring time per workload and pass; a pass never stops short of 3 runs (1 traced)")
		traceFlag    = flag.String("trace", "both", "0 = end-to-end pass only, 1 = per-layer (traced) pass only, both")
		out          = flag.String("out", "", "also write the report as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	specs := suite
	if *workloadFlag != "" {
		specs = nil
		for _, name := range strings.Split(*workloadFlag, ",") {
			s, ok := specByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			specs = append(specs, s)
		}
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), progress: os.Stderr}
	switch *traceFlag {
	case "0":
		opt.endToEnd = true
	case "1":
		opt.perLayer = true
	case "both":
		opt.endToEnd, opt.perLayer = true, true
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0, 1 or both, not %q\n", *traceFlag)
		return 2
	}
	if opt.budget <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	start := time.Now()
	rep := runSuite(specs, opt)
	rep.Host = hostInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, Seconds: *seconds, Trace: *traceFlag, Shards: shardedLegShards(),
		WallS: time.Since(start).Seconds(),
	}
	printReport(os.Stdout, specs, rep)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -out: %v\n", err)
			return 1
		}
	}

	failed := 0
	for _, w := range rep.Workloads {
		failed += w.Failed
	}
	if failed == 0 && len(specs) == 1 && !(opt.endToEnd && opt.perLayer) {
		printDriverLine(os.Stdout, rep.Workloads[specs[0].name], opt.endToEnd)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// shardedLegShards is the shard count of the informational sharded leg.
func shardedLegShards() int { return min(runtime.NumCPU(), 4) }

// runSuite measures specs. The end-to-end pass runs round-robin across
// workloads, so slow drift of the host is shared between them; each
// workload keeps running until it has used its time budget and at least
// minReps runs. The traced pass follows, one workload at a time.
func runSuite(specs []spec, opt options) *report {
	rep := &report{Workloads: map[string]*workloadReport{}}
	type state struct {
		tally
		untraced []run
		spent    time.Duration
	}
	states := make([]*state, len(specs))
	for i := range specs {
		states[i] = &state{}
	}

	if opt.endToEnd {
		for again := true; again; {
			again = false
			for i, s := range specs {
				st := states[i]
				if st.failed > 0 || (len(st.untraced) >= minReps && st.spent >= opt.budget) {
					continue
				}
				again = true
				r, err := s.execute(opt.seed, nil, 1)
				if st.record(s.name, r, err) {
					st.untraced = append(st.untraced, r)
					st.spent += r.overall
					fmt.Fprintf(opt.progress, "%-13s run %d: %.3f s, %.1f ns/cycle\n", s.name,
						len(st.untraced), r.wall.Seconds(), float64(r.wall.Nanoseconds())/float64(r.fp.Cycles))
				}
			}
		}
	}

	var cost spanCost
	if opt.perLayer {
		cost = calibrate(10, 100_000)
		fmt.Fprintf(opt.progress, "tracer: %.1f ns per span (%.1f inside, %.1f outside)\n",
			cost.total(), cost.inside, cost.outside)
	}
	for i, s := range specs {
		st := states[i]
		w := &workloadReport{}
		rep.Workloads[s.name] = w
		if opt.perLayer && st.failed == 0 {
			w.PerLayer = tracedPass(s, opt, cost, &st.tally, st.untraced)
		}
		if opt.endToEnd && st.failed == 0 {
			m, err := endToEndSamples(st.untraced).summarise(endToEndDefs)
			if err != nil {
				st.failed++
				st.errs = append(st.errs, err)
			}
			w.EndToEnd = m
		}
		w.Attempted, w.Failed = st.attempted, st.failed
		for _, err := range st.errs {
			w.Errors = append(w.Errors, err.Error())
			fmt.Fprintf(opt.progress, "FAILED %v\n", err)
		}
	}
	if opt.endToEnd {
		rep.Derived = derived(rep)
	}
	return rep
}

// tracedPass produces one workload's per-layer metrics: an untraced
// reference run when the end-to-end pass did not leave any, traced runs
// until the budget is used (at least one), and the sharded leg where the
// workload has one. Every run must reproduce the pinned fingerprint.
func tracedPass(s spec, opt options, cost spanCost, c *tally, untraced []run) map[string]stat {
	if len(untraced) == 0 {
		r, err := s.execute(opt.seed, nil, 1)
		if !c.record(s.name, r, err) {
			return nil
		}
		untraced = []run{r}
	}
	var traced []run
	for spent := time.Duration(0); len(traced) == 0 || spent < opt.budget; {
		r, err := s.execute(opt.seed, newTracer(), 1)
		if !c.record(s.name+" (traced)", r, err) {
			return nil
		}
		traced = append(traced, r)
		spent += r.overall
		fmt.Fprintf(opt.progress, "%-13s traced run %d: %.3f s, %d spans\n",
			s.name, len(traced), r.wall.Seconds(), r.tracer.totalSpans())
	}
	var sharded []run
	if s.shardedLeg {
		for i := 0; i < shardedReps; i++ {
			r, err := s.execute(opt.seed, nil, shardedLegShards())
			if !c.record(s.name+" (sharded)", r, err) {
				return nil
			}
			sharded = append(sharded, r)
			fmt.Fprintf(opt.progress, "%-13s sharded run %d: %.3f s\n", s.name, i+1, r.wall.Seconds())
		}
	}
	m, err := perLayerSamples(untraced, traced, sharded, cost).summarise(perLayerDefs)
	if err != nil {
		c.failed++
		c.errs = append(c.errs, err)
	}
	return m
}

// derivedDefs are the cross-workload ratios of end-to-end medians:
// num's metric ÷ numCores over den's metric ÷ denCores.
var derivedDefs = []struct {
	name, metric       string
	num, den           string
	numCores, denCores float64
}{
	{"derived.tsocc_vs_mesi_cycles", "sim_cycles", "miss8", "miss8_mesi", 1, 1},
	{"derived.tsocc_vs_mesi_flit_hops", "sim_flit_hops", "miss8", "miss8_mesi", 1, 1},
	{"derived.core_cycle_cost_64_vs_8", "host_ns_per_sim_cycle", "miss64", "miss8", 64, 8},
}

// derived computes each ratio whose two workloads were both run.
func derived(rep *report) map[string]stat {
	out := map[string]stat{}
	for _, d := range derivedDefs {
		num, den := rep.Workloads[d.num], rep.Workloads[d.den]
		if num == nil || den == nil || num.EndToEnd == nil || den.EndToEnd == nil {
			continue
		}
		v := (num.EndToEnd[d.metric].Value / d.numCores) / (den.EndToEnd[d.metric].Value / d.denCores)
		out[d.name] = stat{Value: v, Unit: "ratio", Min: v, Max: v, N: 1}
	}
	return out
}

func printReport(w io.Writer, specs []spec, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host: %s %s/%s, NumCPU %d, GOMAXPROCS %d, seed %d, %.0f s per workload and pass, trace %s, total %.1f s\n",
		h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds, h.Trace, h.WallS)
	for _, s := range specs {
		wr := rep.Workloads[s.name]
		fmt.Fprintf(w, "\n== %s: %s on %s, %d cores; %d of %d runs failed (run_failure_pct %.0f %%)\n",
			s.name, s.input(), s.proto().Name(), s.cfg().Cores, wr.Failed, wr.Attempted,
			100*float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "   FAILED: %s\n", e)
		}
		if wr.EndToEnd != nil {
			fmt.Fprintln(w, "   end-to-end, tracing off: median [min .. max] over n runs; bound = allowed worsening")
			for _, d := range endToEndDefs {
				st := wr.EndToEnd[d.name]
				fmt.Fprintf(w, "   %-30s %14.6g %-10s [%.6g .. %.6g] n=%d  %s is better, bound %.0f %%\n",
					d.name, st.Value, st.Unit, st.Min, st.Max, st.N, d.better, 100*d.bound)
			}
		}
		if wr.PerLayer != nil {
			fmt.Fprintln(w, "   per-layer, from the traced run (self times have the calibrated tracer cost taken out)")
			for _, d := range perLayerDefs {
				st := wr.PerLayer[d.name]
				fmt.Fprintf(w, "   %-30s %14.6g %-10s [%.6g .. %.6g] n=%d\n",
					d.name, st.Value, st.Unit, st.Min, st.Max, st.N)
			}
		}
	}
	if len(rep.Derived) > 0 {
		fmt.Fprintln(w, "\n== derived (the model is unvalidated against the paper's absolute numbers: ratios only, no error figure)")
		for _, d := range derivedDefs {
			if st, ok := rep.Derived[d.name]; ok {
				fmt.Fprintf(w, "   %-34s %10.4f %s\n", d.name, st.Value, st.Unit)
			}
		}
	}
}

// printDriverLine prints the single-workload, single-pass result in the
// benchmark driver's format, as the last line of standard output.
func printDriverLine(w io.Writer, wr *workloadReport, endToEnd bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := wr.PerLayer
	if endToEnd {
		src = wr.EndToEnd
	}
	metrics := make(map[string]value, len(src))
	for name, st := range src {
		metrics[name] = value{st.Value, st.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // only plain numbers and strings are marshalled
	}
	fmt.Fprintf(w, "%s\n", line)
}
