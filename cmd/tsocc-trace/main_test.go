package main

import (
	"path/filepath"
	"strings"
	"testing"
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
	for _, args := range [][]string{
		{"-cores", "-1"}, {"-ops", "-5"}, {"-blocks", "-2"}, {"-maxgap", "-1"},
	} {
		err := cmdSynth(append(args, "-o", out))
		if err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("synth %v: error %v; want a refusal", args, err)
		}
	}
	if err := cmdSynth([]string{"-cores", "0", "-ops", "0", "-o", out}); err != nil {
		t.Fatalf("synth with 0 (= default) sizes: %v", err)
	}
}
