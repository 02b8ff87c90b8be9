package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestBadFigureRejected: a figure outside {0, 2…9} selects no table, so
// it must be refused, naming -figure, instead of running the grid.
func TestBadFigureRejected(t *testing.T) {
	for _, n := range []string{"11", "1", "-1", "10"} {
		err := run([]string{"-figure", n, "-q", "-cores", "4", "-bench", "x264", "-proto", "MESI"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-figure") || strings.Contains(err.Error(), "\n") {
			t.Errorf("-figure %s: error %v; want one line naming -figure", n, err)
		}
	}
}

// TestBadCoresRejected: a core count config.Validate refuses used to
// reach the storage model, which printed negative bit counts; both the
// storage figure and the full evaluation must refuse it, naming -cores,
// before printing anything.
func TestBadCoresRejected(t *testing.T) {
	for _, figure := range []string{"2", "0"} {
		for _, cores := range []string{"-4", "0"} {
			var out bytes.Buffer
			err := run([]string{"-figure", figure, "-q", "-cores", cores, "-bench", "x264", "-proto", "MESI"}, &out)
			if err == nil || !strings.Contains(err.Error(), "-cores") || out.Len() != 0 {
				t.Errorf("-figure %s -cores %s: error %v, %d bytes printed; want a refusal naming -cores", figure, cores, err, out.Len())
			}
		}
	}
}

// TestStorageSection: -figure 2 prints Table 1 at -cores followed by
// Figure 2, with no simulation, and the full evaluation prints the same
// section.
func TestStorageSection(t *testing.T) {
	var want bytes.Buffer
	printStorage(&want, 16)
	if !strings.Contains(want.String(), "Table 1") || !strings.Contains(want.String(), "Figure 2") ||
		strings.Index(want.String(), "Table 1") > strings.Index(want.String(), "Figure 2") {
		t.Fatalf("storage section is not Table 1 then Figure 2:\n%s", want.String())
	}
	var fig2, all bytes.Buffer
	if err := run([]string{"-figure", "2", "-cores", "16"}, &fig2); err != nil {
		t.Fatal(err)
	}
	if fig2.String() != want.String() {
		t.Fatalf("-figure 2 printed\n%s\nwant\n%s", fig2.String(), want.String())
	}
	if err := run([]string{"-q", "-cores", "16", "-bench", "x264", "-proto", "MESI"}, &all); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all.String(), want.String()) {
		t.Fatalf("-figure 0 output lacks the storage section:\n%s", all.String())
	}
}

// TestMistakesAreUsageErrors: every command-line mistake is a
// harness.UsageError (exit status 2) naming what is wrong, returned
// before anything is printed or run.
func TestMistakesAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "1"}, "-figure"}, {[]string{"-cores", "0"}, "-cores"},
		{[]string{"-cores", "300"}, "-cores"}, {[]string{"-scale", "0"}, "-scale"},
		{[]string{"-faults", "nope"}, "-faults"}, {[]string{"-proto", "nope"}, "nope"},
		{[]string{"-bench", "nope"}, "nope"}, {[]string{"-figure", "2", "-faults", "nope"}, "-faults"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-q", "-cores", "4", "-bench", "x264", "-proto", "MESI"}, c.args...), &out)
		if !errors.As(err, new(harness.UsageError)) || !strings.Contains(err.Error(), c.want) || out.Len() != 0 {
			t.Errorf("%v: error %v, %d bytes printed; want a usage error naming %s", c.args, err, out.Len(), c.want)
		}
	}
}
