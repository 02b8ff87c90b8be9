package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
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

// TestMistakesAreUsageErrors: every command-line mistake is a
// harness.UsageError (exit status 2) naming what is wrong, returned
// before any run starts — a bad -faults spec included.
func TestMistakesAreUsageErrors(t *testing.T) {
	missing, file := unwritableParents(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-faults", "nope"}, "-faults"}, {[]string{"-faults", "jitter:rate"}, "-faults"},
		{[]string{"-proto", "nope"}, "nope"}, {[]string{"-bench", "nope"}, "nope"},
		{[]string{"-proto", "nope"}, "-list-protocols"}, {[]string{"-bench", "nope"}, "-list-workloads"},
		{[]string{"-cores", "0"}, "-cores"}, {[]string{"-scale", "0"}, "-scale"},
		{[]string{"-shrink"}, "-shrink"},
		{[]string{"-metrics", missing}, "-metrics"}, {[]string{"-metrics", file}, "-metrics"},
		{[]string{"-timeline", missing}, "-timeline"}, {[]string{"-timeline", file}, "-timeline"},
	} {
		err := run(append([]string{"-cores", "4", "-bench", "ssca2"}, c.args...))
		if !errors.As(err, new(harness.UsageError)) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v; want a usage error naming %s", c.args, err, c.want)
		}
	}
	// Refusing -timeline leaves a good -metrics file as it was.
	keep := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-cores", "4", "-metrics", keep, "-timeline", missing}); err == nil {
		t.Error("an unwritable -timeline was accepted")
	}
	if b, err := os.ReadFile(keep); err != nil || string(b) != "keep" {
		t.Errorf("refused run touched -metrics: %q, %v", b, err)
	}
	if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Errorf("refused run created %s", filepath.Dir(missing))
	}
}

// unwritableParents returns two dump paths whose parent is not an
// existing directory: one under a missing directory, one under a
// regular file.
func unwritableParents(t *testing.T) (missing, underFile string) {
	dir := t.TempDir()
	f := filepath.Join(dir, "f")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "no", "x.json"), filepath.Join(f, "x.json")
}
