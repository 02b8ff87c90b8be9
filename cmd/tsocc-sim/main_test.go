package main

import (
	"strings"
	"testing"

	"repro/internal/shrink"
)

// TestShrinkReproRuns: the repro line the shrinker prints must be a
// command tsocc-sim accepts. Parse it as a shell would (the fault spec
// is single-quoted) and run it through this command's flag set at
// scale 1; a flag the set does not define, or a run that fails, fails
// the test.
func TestShrinkReproRuns(t *testing.T) {
	r := &shrink.Repro{Scale: 1, From: 5, Until: 9}
	line := r.CommandLine("ssca2", "MESI", 4, 1, "evict:rate=400", 11)
	args := strings.Fields(line)
	if args[0] != "tsocc-sim" {
		t.Fatalf("repro line %q does not start with tsocc-sim", line)
	}
	for i, a := range args {
		args[i] = strings.Trim(a, "'")
	}
	if err := run(args[1:]); err != nil {
		t.Fatalf("repro line %q: %v", line, err)
	}
}
