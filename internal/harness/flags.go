package harness

import (
	"flag"

	"repro/internal/config"
	"repro/internal/obs"
)

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
// oracle switch, and observability sinks armed from the dump paths.
func (f *RunFlags) Apply(cfg *config.System) {
	if f.faults != nil {
		cfg.FaultProfile, cfg.FaultSeed, cfg.Checks = *f.faults, *f.faultSeed, *f.checks
	}
	if f.metrics != nil {
		cfg.Obs = obs.FromPaths(*f.metrics, *f.timeline)
	}
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
