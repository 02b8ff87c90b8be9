// Package obs is the simulator's observability layer: a metrics
// registry (counters, gauges, power-of-two-bucket histograms), a
// Chrome-trace-event timeline sink and per-core stall attribution.
//
// Two contracts govern every hook the rest of the tree installs:
//
//   - Zero cost when disabled. Every hot-path call site is nil-guarded
//     (one predictable branch) and TestHotPathZeroAlloc pins the
//     disabled paths at 0 allocs/op.
//   - Zero perturbation when enabled. Observation reads simulation
//     state and writes only obs-owned storage; it never feeds a value
//     back into scheduling, protocol, or timing decisions. The on-vs-off
//     fingerprint gate (TestObsOnOffBitIdentical) enforces this across
//     engine mode × batched core.
//
// Cycle timestamps cross this package's API as plain int64 so obs can
// sit below internal/sim in the import graph (sim itself installs obs
// hooks).
package obs

import (
	"fmt"
	"os"
	"strings"
)

// Obs bundles the per-run observability configuration carried on
// config.System. A nil *Obs (the default) means fully disabled; each
// field arms one subsystem independently.
type Obs struct {
	// Metrics, when non-nil, collects counters/gauges/histograms from
	// every component during machine construction.
	Metrics *Registry
	// Timeline, when non-nil, receives Chrome trace-event spans.
	Timeline *Timeline
}

// Enabled reports whether any observation subsystem is armed.
func (o *Obs) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Timeline != nil)
}

// FromPaths builds the Obs configuration implied by the shared CLI
// flags: -metrics arms the registry, -timeline arms the trace sink.
// Both empty returns nil (observability fully disabled).
func FromPaths(metricsPath, timelinePath string) *Obs {
	if metricsPath == "" && timelinePath == "" {
		return nil
	}
	o := &Obs{}
	if metricsPath != "" {
		o.Metrics = NewRegistry()
	}
	if timelinePath != "" {
		o.Timeline = NewTimeline()
	}
	return o
}

// WriteFiles dumps the armed sinks after a run: the registry to
// metricsPath (JSON when the path ends in .json, text otherwise) and
// the timeline — flushed at finalCycle so every span is closed even
// when the engine terminated early — to timelinePath. Paths matching
// the disarmed sinks are ignored.
func (o *Obs) WriteFiles(metricsPath, timelinePath string, finalCycle int64) error {
	if o == nil {
		return nil
	}
	if o.Metrics != nil && metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if strings.HasSuffix(metricsPath, ".json") {
			err = o.Metrics.WriteJSON(f)
		} else {
			err = o.Metrics.WriteText(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("obs: metrics %s: %w", metricsPath, err)
		}
	}
	if o.Timeline != nil && timelinePath != "" {
		o.Timeline.Flush(finalCycle)
		f, err := os.Create(timelinePath)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		err = o.Timeline.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("obs: timeline %s: %w", timelinePath, err)
		}
	}
	return nil
}

// StallReason classifies why a core could not retire work on a cycle.
// The taxonomy is documented in README "Observability".
type StallReason uint8

const (
	// StallPortBusy: the L1 port rejected the request (MSHR busy,
	// directory conflict) and the core is retrying.
	StallPortBusy StallReason = iota
	// StallWBFull: a store found the write buffer full.
	StallWBFull
	// StallFenceDrain: a fence or atomic is draining the write buffer,
	// or a fence is waiting for its completion callback.
	StallFenceDrain
	// StallMissOutstanding: a load or RMW is waiting on the memory
	// system (the classic miss-latency stall).
	StallMissOutstanding
	// StallBatchInterior: cycles skipped inside a batched run
	// (BatchedCore) — retired compute, not a true stall, but
	// attributed so the per-core cycle budget sums up.
	StallBatchInterior
	// NumStallReasons sizes per-reason arrays.
	NumStallReasons
	// StallNone marks "no stall episode open" in core-side state.
	StallNone StallReason = NumStallReasons
)

var stallNames = [NumStallReasons]string{
	"port_busy",
	"wb_full",
	"fence_drain",
	"miss_outstanding",
	"batch_interior",
}

// String returns the snake_case taxonomy name used in metric series.
func (r StallReason) String() string {
	if r < NumStallReasons {
		return stallNames[r]
	}
	return "none"
}

// CoreStalls holds one core's per-reason stall histograms: each
// observation is one stall episode, its value the episode length in
// cycles (so Count = episodes and Sum = total stalled cycles per
// reason). A nil *CoreStalls ignores observations.
type CoreStalls struct {
	h [NumStallReasons]*Hist
}

// NewCoreStalls registers a per-reason stall histogram set under
// prefix (series "<prefix>.stall.<reason>").
func (r *Registry) NewCoreStalls(prefix string) *CoreStalls {
	s := &CoreStalls{}
	for i := StallReason(0); i < NumStallReasons; i++ {
		s.h[i] = r.NewHist(prefix + ".stall." + i.String())
	}
	return s
}

// Observe records one stall episode of the given length.
func (s *CoreStalls) Observe(reason StallReason, cycles int64) {
	if s == nil || reason >= NumStallReasons {
		return
	}
	s.h[reason].Observe(cycles)
}
