package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestBadCoresRejected: the suite cannot run on a core count
// config.Validate refuses, nor on one too small for its widest test, so
// such a count is a usage error naming -cores, before anything runs —
// not a failure of every test, or of every test wider than the machine.
func TestBadCoresRejected(t *testing.T) {
	for _, cores := range []string{"0", "-1", "2", "3", "300"} {
		var out bytes.Buffer
		err := run([]string{"-iters", "1", "-proto", "MESI", "-cores", cores}, &out)
		if !errors.As(err, new(harness.UsageError)) || !strings.Contains(err.Error(), "-cores") || out.Len() != 0 {
			t.Errorf("-cores %s: error %v, %d bytes printed; want a usage error naming -cores", cores, err, out.Len())
		}
	}
}

// TestUnknownProtocolRejected: an unknown -proto is a usage error, as
// it is in tsocc-sim.
func TestUnknownProtocolRejected(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-iters", "1", "-proto", "MESI,nope"}, &out)
	if !errors.As(err, new(harness.UsageError)) || !strings.Contains(err.Error(), "nope") || out.Len() != 0 {
		t.Errorf("error %v, %d bytes printed; want a usage error naming the protocol", err, out.Len())
	}
}

// TestSuiteRuns: at the narrowest core count the suite accepts, one
// iteration of every test passes on MESI.
func TestSuiteRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-iters", "1", "-proto", "MESI", "-cores", "4"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.HasSuffix(out.String(), "all protocols satisfy TSO on the litmus suite\n") {
		t.Fatalf("output does not end with the all-clear:\n%s", out.String())
	}
}

// TestBadFaultsRejected: an unknown or malformed -faults spec is a
// usage error naming -faults before any test runs, not an ERROR line
// per test.
func TestBadFaultsRejected(t *testing.T) {
	for _, spec := range []string{"nope", "jitter:rate", "rate=3"} {
		var out bytes.Buffer
		err := run([]string{"-iters", "1", "-proto", "MESI", "-cores", "4", "-faults", spec}, &out)
		if !errors.As(err, new(harness.UsageError)) || !strings.Contains(err.Error(), "-faults") || out.Len() != 0 {
			t.Errorf("-faults %s: error %v, %d bytes printed; want a usage error naming -faults", spec, err, out.Len())
		}
	}
}
