package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trace"
)

// TestRecordRejectsBadCores: record hands the core count to a workload
// generator, which panics on a non-positive one; the subcommand must
// return config.Validate's error naming the field instead.
func TestRecordRejectsBadCores(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.trc")
	for _, cores := range []string{"-3", "0"} {
		err := cmdRecord([]string{"-cores", cores, "-o", out})
		if err == nil || !strings.Contains(err.Error(), "cores") {
			t.Errorf("record -cores %s: error %v; want one naming cores", cores, err)
		}
	}
}

// TestSynthRefusesNegatives: a negative size used to be replaced by the
// default without a word; 0 still selects the default.
func TestSynthRefusesNegatives(t *testing.T) {
	out := filepath.Join(t.TempDir(), "z.trc")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "-1"}, "non-negative"}, {[]string{"-ops", "-5"}, "non-negative"},
		{[]string{"-blocks", "-2"}, "non-negative"}, {[]string{"-maxgap", "-1"}, "non-negative"},
		// No replay runs a machine this wide, so the trace is never written.
		{[]string{"-cores", "300", "-ops", "1"}, "cores"},
	} {
		err := cmdSynth(append(c.args, "-o", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("synth %v: error %v; want a refusal", c.args, err)
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Fatalf("synth %v: wrote %s", c.args, out)
		}
	}
	if err := cmdSynth([]string{"-cores", "0", "-ops", "0", "-o", out}); err != nil {
		t.Fatalf("synth with 0 (= default) sizes: %v", err)
	}
}

// TestReplayRefusesNegativeCores: a negative -cores used to be ignored,
// replaying on the recorded geometry; 0 still selects it.
func TestReplayRefusesNegativeCores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.trc")
	if _, err := writeTrace(path, trace.Zipf(trace.SynthParams{Cores: 2, OpsPerCore: 16, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	for _, cores := range []string{"-3", "-1"} {
		err := cmdReplay([]string{"-i", path, "-proto", "MESI", "-cores", cores})
		if err == nil || !strings.Contains(err.Error(), "-cores") {
			t.Errorf("replay -cores %s: error %v; want one naming -cores", cores, err)
		}
	}
	if err := cmdReplay([]string{"-i", path, "-proto", "MESI", "-cores", "0"}); err != nil {
		t.Fatalf("replay -cores 0 (= recorded geometry): %v", err)
	}
}

// TestReplayRefusesHostileGeometry: replay builds the machine from the
// file's header, so a header carrying a geometry that used to panic in
// memsys.NewCache, build a bigger cache than declared, or run the host
// out of memory must come back as config.Validate's one-line error.
func TestReplayRefusesHostileGeometry(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*config.System)
	}{
		{"L1Size", func(s *config.System) { s.L1Size = 3000 }},
		{"L1Size", func(s *config.System) { s.L1Size, s.L1Ways = 64, 4 }},
		{"WriteBuffer", func(s *config.System) { s.WriteBuffer = 1 << 40 }},
	} {
		tr := trace.Zipf(trace.SynthParams{Cores: 2, OpsPerCore: 16, Seed: 1})
		tc.mut(&tr.Meta.Sys)
		path := filepath.Join(t.TempDir(), "hostile.trc")
		if _, err := writeTrace(path, tr); err != nil {
			t.Fatal(err)
		}
		err := cmdReplay([]string{"-i", path, "-proto", "MESI"})
		if err == nil || !strings.Contains(err.Error(), tc.field) || strings.Contains(err.Error(), "\n") {
			t.Errorf("replay with hostile %s: error %v; want one line naming the field", tc.field, err)
		}
	}
}

// TestMistakesAreUsageErrors: every command-line mistake of every
// subcommand is a harness.UsageError (exit status 2) naming what is
// wrong; replay refuses a bad -faults before it reads the trace.
func TestMistakesAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "z.trc")
	if _, err := writeTrace(trc, trace.Zipf(trace.SynthParams{Cores: 2, OpsPerCore: 16, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.trc")
	missing := filepath.Join(dir, "no", "x.json")
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "usage"}, {[]string{"nope"}, "nope"},
		{[]string{"record", "-o", out, "-proto", "nope"}, "nope"},
		{[]string{"record", "-o", out, "-bench", "nope"}, "nope"},
		{[]string{"record", "-bench", "x264"}, "-o"},
		{[]string{"record", "-o", out, "-cores", "0"}, "-cores"},
		{[]string{"record", "-o", out, "-cores", "2", "-scale", "0"}, "-scale"},
		{[]string{"replay"}, "-i"}, {[]string{"replay", "-i", trc, "-cores", "-1"}, "-cores"},
		{[]string{"replay", "-i", trc, "-proto", "nope"}, "nope"},
		{[]string{"replay", "-i", filepath.Join(dir, "missing.trc"), "-faults", "nope"}, "-faults"},
		{[]string{"record", "-o", out, "-metrics", missing}, "-metrics"},
		{[]string{"record", "-o", out, "-timeline", filepath.Join(trc, "x.json")}, "-timeline"},
		{[]string{"replay", "-i", trc, "-metrics", filepath.Join(trc, "x.json")}, "-metrics"},
		{[]string{"replay", "-i", filepath.Join(dir, "missing.trc"), "-timeline", missing}, "-timeline"},
		{[]string{"synth", "-o", out, "-kind", "nope"}, "nope"}, {[]string{"synth"}, "-o"},
		{[]string{"synth", "-o", out, "-ops", "-1"}, "non-negative"},
		{[]string{"synth", "-o", out, "-cores", "300"}, "-cores"},
		{[]string{"info"}, "-i"},
	} {
		err := run(c.args)
		if !errors.As(err, new(harness.UsageError)) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v; want a usage error naming %s", c.args, err, c.want)
		}
	}
}
