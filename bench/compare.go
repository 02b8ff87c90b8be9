package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) pair, following the
// choosing-metrics rule: b may be worse than a by at most the metric's
// bound; where either side's run-to-run spread is wider than the bound
// the pair is unresolved, not unchanged — unless every run of b reads
// better than every run of a.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares baseline a with b for one metric. delta is b's change
// relative to a, positive when b is worse.
func judge(d metricDef, bound float64, a, b stat) (delta float64, verdict string) {
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	if a.Value != 0 {
		delta = sign * (b.Value - a.Value) / a.Value
	} else if b.Value != 0 {
		delta = sign
	}
	if delta > bound {
		return delta, verdictWorse
	}
	spread := max(ratio(a.Max-a.Min, a.Value), ratio(b.Max-b.Min, b.Value))
	allBetter := b.Max < a.Min
	if d.better == "higher" {
		allBetter = b.Min > a.Max
	}
	if spread > bound && !allBetter {
		return delta, verdictUnresolved
	}
	return delta, verdictOK
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both reports, a being the baseline, and returns the process exit
// code: 1 if any row is worse, 2 if the files cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sameSeed := a.Host.Seed == b.Host.Seed
	fmt.Fprintf(w, "a = %s (seed %d), b = %s (seed %d); delta > 0 means b is worse\n",
		pathA, a.Host.Seed, pathB, b.Host.Seed)
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	rows, worse := 0, 0
	row := func(workload, metric string, av, bv, delta, bound float64, verdict string) {
		fmt.Fprintf(w, "%-13s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
			workload, metric, av, bv, 100*delta, 100*bound, verdict)
		rows++
		if verdict == verdictWorse {
			worse++
		}
	}
	for _, s := range suite {
		wa, wb := a.Workloads[s.name], b.Workloads[s.name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, d := range endToEndDefs {
			bound := d.bound
			if d.exact && sameSeed {
				bound = 0
			}
			delta, verdict := judge(d, bound, wa.EndToEnd[d.name], wb.EndToEnd[d.name])
			row(s.name, d.name, wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value, delta, bound, verdict)
		}
		fa := 100 * ratio(float64(wa.Failed), float64(wa.Attempted))
		fb := 100 * ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := verdictOK
		if fb > fa {
			verdict = verdictWorse
		}
		row(s.name, "run_failure_pct", fa, fb, (fb-fa)/100, 0, verdict)
	}
	if rows == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two reports share no workload with end-to-end metrics")
		return 2
	}
	fmt.Fprintf(w, "%d rows, %d worse\n", rows, worse)
	if worse > 0 {
		return 1
	}
	return 0
}
