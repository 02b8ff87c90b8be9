// Package shrink reduces a failing fault-injected run to a minimal
// reproducer. The fault injector draws every decision from a pure hash
// of (seed, site, counter) and gates firing on a per-site counter
// window [from, until) — narrowing the window masks decisions without
// perturbing any other decision's draw. That makes the failure a
// function of (workload scale, window) alone, so the shrinker can
// bisect both: first the workload length, then the window's upper and
// lower bounds, re-verifying that the reduced tuple still trips the
// same violation kind.
//
// Shrinking is a heuristic on a non-monotone space (masking one fault
// can unmask a different schedule), so every probe that fails with the
// original violation kind is remembered and the best surviving tuple is
// returned — the search never "loses" a reproducer it has already seen.
package shrink

import (
	"errors"
	"fmt"
)

// Outcome classifies one probe run.
type Outcome struct {
	// Failed reports whether the run tripped anything: an oracle
	// violation, a simulator error, or a functional-check failure.
	Failed bool
	// Kind is the failure class used to decide "same violation": the
	// first oracle violation's kind ("swmr", "legality", ...), or
	// "error" / "functional" for non-oracle failures. Empty when the
	// run passed.
	Kind string
	// Detail is a one-line description of the failure (first violation
	// or error text), carried into the final Repro.
	Detail string
	// MaxCounter is the injector's decision-counter high-water mark
	// (faults.Injector.MaxCounter) — the baseline run's value seeds the
	// initial window upper bound.
	MaxCounter uint64
}

// Input configures a shrink search.
type Input struct {
	// Scale is the failing run's workload scale (>= 1).
	Scale int
	// Run executes one probe at the given workload scale and fault
	// window [from, until); until == 0 means unbounded. It must be
	// deterministic: the same arguments always produce the same
	// Outcome.
	Run func(scale int, from, until uint64) Outcome
	// MaxProbes caps the number of Run invocations (0 = default).
	MaxProbes int
}

// Repro is the reduced reproducer.
type Repro struct {
	Scale       int
	From, Until uint64 // counter window; replay with -fault-from/-fault-until
	Kind        string // the violation kind the tuple reproduces
	Detail      string
	Probes      int // total runs spent (baseline + search + verify)
}

const defaultMaxProbes = 96

// Shrink reduces a failing configuration. It returns an error if the
// baseline run does not fail, or if probing exhausts its budget before
// any reproducer is confirmed (the baseline tuple itself always counts
// as one).
func Shrink(in Input) (*Repro, error) {
	if in.Scale < 1 {
		in.Scale = 1
	}
	if in.MaxProbes <= 0 {
		in.MaxProbes = defaultMaxProbes
	}
	s := &search{in: in}

	base := s.probe(in.Scale, 0, 0)
	if !base.Failed {
		return nil, errors.New("shrink: baseline run does not fail; nothing to reduce")
	}
	s.kind = base.Kind
	// Window covering every decision the baseline drew: counters start
	// at 1, so [0, max+1) behaves exactly like the unbounded run.
	until := base.MaxCounter + 1
	s.remember(in.Scale, 0, until, base)

	// Phase 1: halve the workload until it stops failing.
	scale := in.Scale
	for scale > 1 && !s.exhausted() {
		cand := scale / 2
		if out := s.probe(cand, 0, until); s.matches(out) {
			s.remember(cand, 0, until, out)
			scale = cand
		} else {
			break
		}
	}

	// Phase 2: bisect the window's upper bound down.
	from, lo, hi := uint64(0), uint64(1), until
	for lo < hi && !s.exhausted() {
		mid := lo + (hi-lo)/2
		if out := s.probe(scale, from, mid); s.matches(out) {
			s.remember(scale, from, mid, out)
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	until = hi

	// Phase 3: bisect the lower bound up.
	lo, hi = from, until-1
	for lo < hi && !s.exhausted() {
		mid := lo + (hi-lo+1)/2
		if out := s.probe(scale, mid, until); s.matches(out) {
			s.remember(scale, mid, until, out)
			lo = mid
		} else {
			hi = mid - 1
		}
	}

	if s.best == nil {
		return nil, fmt.Errorf("shrink: no reproducer confirmed within %d probes", in.MaxProbes)
	}
	// The best tuple was observed failing; re-verify it end to end so a
	// stale intermediate can never be reported.
	r := *s.best
	if out := s.probe(r.Scale, r.From, r.Until); s.matches(out) {
		r.Detail = out.Detail
	} else {
		return nil, fmt.Errorf("shrink: reduced tuple (scale=%d window=[%d,%d)) did not re-fail — run is not deterministic",
			r.Scale, r.From, r.Until)
	}
	r.Probes = s.probes
	return &r, nil
}

type search struct {
	in     Input
	kind   string
	probes int
	best   *Repro
}

func (s *search) exhausted() bool { return s.probes >= s.in.MaxProbes }

func (s *search) probe(scale int, from, until uint64) Outcome {
	if s.exhausted() {
		return Outcome{}
	}
	s.probes++
	return s.in.Run(scale, from, until)
}

func (s *search) matches(out Outcome) bool {
	return out.Failed && out.Kind == s.kind
}

// remember keeps the smallest confirmed-failing tuple: narrower window
// first, smaller scale as tie-break.
func (s *search) remember(scale int, from, until uint64, out Outcome) {
	width := until - from
	if s.best != nil {
		bw := s.best.Until - s.best.From
		if bw < width || (bw == width && s.best.Scale <= scale) {
			return
		}
	}
	s.best = &Repro{Scale: scale, From: from, Until: until, Kind: out.Kind, Detail: out.Detail}
}

// CommandLine renders the canonical tsocc-sim invocation that replays a
// reproducer.
func (r *Repro) CommandLine(bench, proto string, cores int, seed uint64, faults string, faultSeed uint64) string {
	return fmt.Sprintf("tsocc-sim -bench %s -proto %s -cores %d -scale %d -seed %d -faults '%s' -fault-seed %d -fault-from %d -fault-until %d -checks",
		bench, proto, cores, r.Scale, seed, faults, faultSeed, r.From, r.Until)
}
