package harness

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/obs"
)

// UsageError is a command-line mistake. The commands exit with status 2
// on one and with status 1 on any other error (see Exit).
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }
func (e UsageError) Unwrap() error { return e.Err }

// Usagef returns a UsageError formatted as by fmt.Errorf.
func Usagef(format string, args ...any) error {
	return UsageError{fmt.Errorf(format, args...)}
}

// Exit ends a command whose run returned err: it returns on nil, and
// otherwise prints err and exits with status 2 for a UsageError, 1 for
// anything else.
func Exit(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.As(err, new(UsageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// Flag groups for BindRunFlags.
const (
	// FaultFlags: -faults, -fault-seed and -checks.
	FaultFlags = 1 << iota
	// ObsFlags: -metrics and -timeline.
	ObsFlags
)

// RunFlags holds the run options the simulating CLIs share, bound once
// to a command's FlagSet by BindRunFlags and copied onto its
// config.System by Apply. Fields of an unbound group stay nil.
type RunFlags struct {
	faults    *string
	faultSeed *uint64
	checks    *bool
	metrics   *string
	timeline  *string
}

// BindRunFlags registers the selected groups (FaultFlags, ObsFlags) on
// fs.
func BindRunFlags(fs *flag.FlagSet, groups int) *RunFlags {
	f := &RunFlags{}
	if groups&FaultFlags != 0 {
		f.faults = fs.String("faults", "", "fault-injection profile(s): jitter, pressure, burst, evict, reset-storm, victim; parameterized name:key=val and composed with + or , (empty = off)")
		f.faultSeed = fs.Uint64("fault-seed", 1, "fault-injection seed")
		f.checks = fs.Bool("checks", false, "enable runtime invariant oracles (SWMR, value, TSO order, protocol legality, tx lifecycle)")
	}
	if groups&ObsFlags != 0 {
		f.metrics = fs.String("metrics", "", "write the metrics-registry dump to this file (.json = JSON, else text)")
		f.timeline = fs.String("timeline", "", "write a Chrome trace-event timeline (Perfetto / chrome://tracing) to this file")
	}
	return f
}

// Apply copies the bound flags onto cfg: the fault profile and seed, the
// oracle switch, and observability sinks armed from the dump paths. A
// -faults spec faults.Parse refuses, and a -metrics or -timeline path
// whose parent is not an existing directory, are UsageErrors naming the
// flag, so they stop a command before anything runs. The path check
// creates and truncates nothing.
func (f *RunFlags) Apply(cfg *config.System) error {
	if f.faults != nil {
		if spec := *f.faults; spec != "" { // empty: no faults
			if _, err := faults.Parse(spec); err != nil {
				return Usagef("-faults %q: %w", spec, err)
			}
		}
		cfg.FaultProfile, cfg.FaultSeed, cfg.Checks = *f.faults, *f.faultSeed, *f.checks
	}
	if f.metrics != nil {
		for _, p := range []struct{ flag, path string }{{"-metrics", *f.metrics}, {"-timeline", *f.timeline}} {
			if p.path == "" {
				continue
			}
			dir := filepath.Dir(p.path)
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				return Usagef("%s %q: %s is not an existing directory", p.flag, p.path, dir)
			}
		}
		cfg.Obs = obs.FromPaths(*f.metrics, *f.timeline)
	}
	return nil
}

// WriteObs dumps o's sinks to the -metrics / -timeline paths, flushing
// the timeline at finalCycle. It writes nothing when ObsFlags is not
// bound.
func (f *RunFlags) WriteObs(o *obs.Obs, finalCycle int64) error {
	if f.metrics == nil {
		return nil
	}
	return o.WriteFiles(*f.metrics, *f.timeline, finalCycle)
}
