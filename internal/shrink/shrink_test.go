package shrink

import (
	"strings"
	"testing"
)

// synthProbe models a deterministic failing run: the violation fires
// iff the fault window admits decision counter `trigger` and the
// workload scale is at least `minScale`. MaxCounter mimics the
// injector's high-water mark.
func synthProbe(trigger uint64, minScale int, maxCounter uint64) func(scale int, from, until uint64) Outcome {
	return func(scale int, from, until uint64) Outcome {
		out := Outcome{MaxCounter: maxCounter}
		admitted := from <= trigger && (until == 0 || trigger < until)
		if admitted && scale >= minScale {
			out.Failed = true
			out.Kind = "legality"
			out.Detail = "synthetic violation"
		}
		return out
	}
}

func TestShrinkReducesToSingleCounter(t *testing.T) {
	const trigger, maxCounter = 37, 100
	r, err := Shrink(Input{Scale: 8, Run: synthProbe(trigger, 1, maxCounter)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "legality" {
		t.Fatalf("kind = %q", r.Kind)
	}
	// A monotone single-trigger failure shrinks exactly to [37, 38) at
	// scale 1.
	if r.Scale != 1 || r.From != trigger || r.Until != trigger+1 {
		t.Fatalf("reduced to scale=%d window=[%d,%d), want scale=1 window=[37,38)",
			r.Scale, r.From, r.Until)
	}
	if r.Probes <= 0 || r.Probes > defaultMaxProbes {
		t.Fatalf("probes = %d", r.Probes)
	}
}

func TestShrinkKeepsRequiredScale(t *testing.T) {
	// The failure needs scale >= 3, so halving 8 -> 4 succeeds but
	// 4 -> 2 must be rejected and scale 4 kept.
	r, err := Shrink(Input{Scale: 8, Run: synthProbe(10, 3, 40)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scale != 4 {
		t.Fatalf("scale = %d, want 4 (halving below the failure threshold must stop)", r.Scale)
	}
	if r.From != 10 || r.Until != 11 {
		t.Fatalf("window = [%d,%d), want [10,11)", r.From, r.Until)
	}
}

func TestShrinkBaselineMustFail(t *testing.T) {
	_, err := Shrink(Input{Scale: 2, Run: func(int, uint64, uint64) Outcome {
		return Outcome{MaxCounter: 10}
	}})
	if err == nil || !strings.Contains(err.Error(), "does not fail") {
		t.Fatalf("err = %v", err)
	}
}

func TestShrinkIgnoresDifferentViolationKind(t *testing.T) {
	// The probe fails with a *different* kind once the window narrows:
	// the search must not chase it, and the surviving reproducer must
	// still carry the baseline kind.
	probe := func(scale int, from, until uint64) Outcome {
		out := Outcome{MaxCounter: 20}
		width := until - from
		switch {
		case until == 0 || width > 10:
			out.Failed, out.Kind, out.Detail = true, "legality", "the real bug"
		default:
			out.Failed, out.Kind, out.Detail = true, "swmr", "a decoy"
		}
		return out
	}
	r, err := Shrink(Input{Scale: 1, Run: probe})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != "legality" || r.Detail != "the real bug" {
		t.Fatalf("chased the decoy: kind=%q detail=%q", r.Kind, r.Detail)
	}
	if w := r.Until - r.From; w <= 10 {
		t.Fatalf("window [%d,%d) narrower than the real bug allows", r.From, r.Until)
	}
}

func TestShrinkNonDeterministicRunDetected(t *testing.T) {
	// A probe that fails only on odd invocations breaks the re-verify
	// contract; Shrink must report it instead of returning a tuple that
	// does not replay.
	calls := 0
	probe := func(scale int, from, until uint64) Outcome {
		calls++
		out := Outcome{MaxCounter: 4}
		if calls%2 == 1 {
			out.Failed, out.Kind = true, "legality"
		}
		return out
	}
	_, err := Shrink(Input{Scale: 1, Run: probe})
	if err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("err = %v", err)
	}
}

func TestCommandLine(t *testing.T) {
	r := &Repro{Scale: 2, From: 5, Until: 9}
	got := r.CommandLine("ssca2", "MESI", 4, 1, "evict:rate=400", 11)
	for _, want := range []string{
		"-bench ssca2", "-proto MESI", "-scale 2",
		"-faults 'evict:rate=400'", "-fault-seed 11",
		"-fault-from 5", "-fault-until 9", "-checks",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("command line %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "-shards") {
		t.Fatalf("command line %q passes -shards, which tsocc-sim does not define", got)
	}
}
