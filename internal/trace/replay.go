package trace

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// ReplayCore drives a recorded (or synthesized) per-core operation
// stream through a coherence.CorePort. It is the TSO front end cpu.Core
// issues through (cpu.Front: write buffer, store→load forwarding,
// drain-before-atomic/fence, port-busy retries, counters, stall
// attribution) plus a gap clock, so replaying a trace on the machine it
// was recorded under reproduces every port call on its original cycle:
//
//   - After a synchronous completion (a store entering the write
//     buffer, a forwarded load) the next op becomes ready Gap cycles
//     later; Gap includes the completing op's own cycle.
//   - After an asynchronous completion (load/RMW/fence callback) the
//     next op becomes ready Gap cycles after the callback fires; a Gap
//     of 0 issues on the callback cycle itself, exactly as cpu.Core
//     dispatches the next instruction the cycle a callback lands.
//   - A ready op is attempted every ticked cycle until the front end
//     accepts it, as cpu.Core retries; the gap clock does not advance
//     during retries.
//
// Between ready times the core reports NextWake = readyAt, so the
// idle-skip engine leaps the recorded compute gaps just as it leaps a
// batched core's runs; an asynchronous completion sets readyAt from the
// callback (resume) and wakes the core there, as a batched cpu.Core
// retires its next run in the callback.
type ReplayCore struct {
	cpu.Front

	// op is the current operation, decoded one ahead of its issue: a
	// retry re-reads this field, never the stream bytes. more is false
	// once the stream is exhausted; idx of n ops are behind op.
	cur  Cursor
	op   Op
	more bool
	idx  int
	n    int

	// readyAt is the earliest cycle op may issue.
	readyAt sim.Cycle

	discard int64 // where loaded values go: replay has no registers
}

// NewReplayCore builds a replay frontend for one stream against port,
// with a write buffer of wbEntries slots (use the recording geometry's
// WriteBuffer for bit-identical replay).
func NewReplayCore(id int, ops Ops, port coherence.CorePort, wbEntries int) *ReplayCore {
	c := &ReplayCore{cur: ops.Cursor(), n: ops.Len()}
	c.Init("replay", id, port, wbEntries, c.resume)
	if c.op, c.more = c.cur.Next(); c.more {
		// The stream's anchor is cycle 0; the first op's Gap is its
		// absolute first-attempt cycle.
		c.readyAt = sim.Cycle(c.op.Gap)
	} else {
		c.Halt()
	}
	return c
}

// Tick advances the replay core one cycle: the front end's prologue,
// then the gap clock, then one attempt at the current op.
func (c *ReplayCore) Tick(now sim.Cycle) {
	if !c.Begin(now) || now < c.readyAt {
		return
	}
	c.Dispatch(now)
	var out cpu.Outcome
	switch op := &c.op; op.Kind {
	case config.TraceLoad:
		out = c.IssueLoad(now, op.Addr, &c.discard)
	case config.TraceStore:
		out = c.IssueStore(now, op.Addr, op.Val)
	case config.TraceRMWAdd, config.TraceRMWXchg, config.TraceCAS:
		out = c.IssueAtomic(now, op.Kind, op.Addr, op.Val, op.Val2, &c.discard)
	case config.TraceFence:
		out = c.IssueFence(now)
	case config.TraceHalt:
		c.Halt()
		out = cpu.Sync
	default:
		panic(fmt.Sprintf("trace: replay core %d: bad op kind %d", c.ID, op.Kind))
	}
	if out == cpu.Rejected {
		return // the op stays current and is retried next tick
	}
	c.Instructions.Add(c.op.Instrs)
	c.idx++
	if c.op, c.more = c.cur.Next(); !c.more {
		return
	}
	if out == cpu.Sync {
		// The gap already covers the completing op's own cycle. After an
		// Async issue, resume anchors it on the callback cycle.
		c.readyAt = now + sim.Cycle(c.op.Gap)
	}
}

// resume is the front end's completion hook: after an asynchronous
// completion the next op is ready Gap cycles after the callback cycle.
func (c *ReplayCore) resume(now sim.Cycle) sim.Cycle {
	if c.more {
		c.readyAt = now + sim.Cycle(c.op.Gap)
	}
	return c.readyAt
}

// NextWake implements sim.WakeHinter: cpu.Core's, with readyAt standing
// in for the instruction stall.
func (c *ReplayCore) NextWake(now sim.Cycle) sim.Cycle { return c.NextWakeFrom(now, c.readyAt) }

// ComponentLabel implements sim.Labeled (forensic reports).
func (c *ReplayCore) ComponentLabel() string { return fmt.Sprintf("replay core %d", c.ID) }

// Debug renders the replay state (deadlock diagnostics).
func (c *ReplayCore) Debug() string {
	return fmt.Sprintf("replay core %d: op %d/%d %s readyAt=%d",
		c.ID, c.idx, c.n, c.State(), c.readyAt)
}
