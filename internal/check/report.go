package check

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Report is the structured forensic dump emitted when a run fails to
// make progress (deadlock, cycle limit) or a component panics. All
// failure paths — the engine watchdog, recovered panics, oracle
// violations — render through the same format so a failing sweep
// always reads the same way.
type Report struct {
	Reason string    // "deadlock", "cycle limit", "panic"
	Cycle  sim.Cycle // cycle at which the run stopped

	// Components is the engine snapshot: per-component due cycles,
	// completion state, and each component's own Debug dump (in-flight
	// TxTable entries, timer queues, core state).
	Components []sim.PendingComponent

	// MeshPending counts undelivered mesh messages; PoolGets/PoolLive
	// are message-pool traffic and leak indicators.
	MeshPending int
	PoolGets    int64
	PoolLive    int64

	// PanicValue and Stack are set when a component panic was recovered
	// at the harness boundary.
	PanicValue any
	Stack      string

	// Oracle carries invariant-checker violations observed before the
	// failure, if checks were enabled.
	Oracle error

	// TxTables holds each directory tile's transaction-table dump
	// (coherence.TxTable.Debug): transactions in flight and messages
	// parked behind busy lines, so a stuck transaction is visible in the
	// report without a re-run.
	TxTables []string
}

// String renders the dump. Quiescent, completed components are
// summarized in one line; stalled or stateful ones get their detail.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== forensic report: %s at cycle %d ===\n", r.Reason, r.Cycle)
	if r.PanicValue != nil {
		fmt.Fprintf(&b, "panic: %v\n", r.PanicValue)
	}
	fmt.Fprintf(&b, "mesh: %d queued deliveries; pool: %d gets, %d live\n",
		r.MeshPending, r.PoolGets, r.PoolLive)
	if r.Oracle != nil {
		fmt.Fprintf(&b, "oracle: %v\n", r.Oracle)
	}
	quiet := 0
	for _, c := range r.Components {
		if c.Done && c.Detail == "" && c.Due == sim.WakeNever {
			quiet++
			continue
		}
		state := "done"
		if !c.Done {
			state = "PENDING"
		}
		due := "never"
		if c.Due != sim.WakeNever {
			due = fmt.Sprintf("%d", c.Due)
		}
		fmt.Fprintf(&b, "  [%d] %s due=%s %s", c.Index, c.Label, due, state)
		if c.Detail != "" {
			fmt.Fprintf(&b, " | %s", c.Detail)
		}
		b.WriteByte('\n')
	}
	if quiet > 0 {
		fmt.Fprintf(&b, "  (%d quiescent completed components omitted)\n", quiet)
	}
	if len(r.TxTables) > 0 {
		b.WriteString("tx tables:\n")
		for _, s := range r.TxTables {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	if r.Stack != "" {
		fmt.Fprintf(&b, "stack:\n%s\n", r.Stack)
	}
	b.WriteString("=== end forensic report ===")
	return b.String()
}
