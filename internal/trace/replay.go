package trace

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ReplayCore drives a recorded (or synthesized) per-core operation
// stream through a coherence.CorePort. It implements the same
// sim.Ticker + sim.WakeHinter scheduling contract as cpu.Core and
// models the identical TSO front end — the same cpu.WriteBuffer (FIFO,
// store→load forwarding), drain-before-atomic/fence, port-busy retries —
// so that replaying a trace on the machine it was recorded under
// reproduces every port call on its original cycle:
//
//   - After a synchronous completion (a store entering the write
//     buffer, a forwarded load) the next op becomes ready Gap cycles
//     later; Gap includes the completing op's own cycle.
//   - After an asynchronous completion (load/RMW/fence callback) the
//     next op becomes ready Gap cycles after the callback fires; a Gap
//     of 0 issues on the callback cycle itself, exactly as cpu.Core
//     dispatches the next instruction the cycle a callback lands.
//   - A ready op is attempted every ticked cycle until the port (or the
//     write-buffer precondition) accepts it, mirroring cpu.Core's retry
//     behaviour; the gap clock does not advance during retries.
//
// Between ready times the core reports NextWake = readyAt, so the
// idle-skip engine leaps the recorded compute gaps just as it leaps a
// batched core's straight-line runs.
type ReplayCore struct {
	ID   int
	port coherence.CorePort

	// op is the current operation, decoded one ahead of its issue: a
	// port-busy retry re-reads this field, never the stream bytes. more
	// is false once the stream is exhausted; idx of n ops are behind op.
	cur  Cursor
	op   Op
	more bool
	idx  int
	n    int

	wb cpu.WriteBuffer

	waiting bool
	halted  bool

	// readyAt is the earliest cycle op may issue. gapArmed defers
	// the anchor for async completions: the callback cycle is not known
	// until the core ticks on it, at which point readyAt = now + Gap.
	readyAt  sim.Cycle
	gapArmed bool

	// waker marks the core due when a completion callback fires — inside
	// the L1's tick for a miss, as an engine completion event at the
	// start of the cycle for a hit (the wake-set contract, mirroring
	// cpu.Core).
	waker sim.Waker

	loadCb  func(val uint64)
	rmwCb   func(old uint64)
	storeCb func()
	fenceCb func()

	fAdd, fXchg, fCas func(old uint64) (uint64, bool)
	rmwA, rmwB        uint64

	Loads        stats.Counter
	Stores       stats.Counter
	RMWs         stats.Counter
	Fences       stats.Counter
	Instructions stats.Counter
	WBForwards   stats.Counter
	FinishCycle  sim.Cycle

	// Stall attribution, as cpu.Core's (recorded compute gaps are not
	// stalls and are never attributed).
	stalls cpu.Stalls
}

// NewReplayCore builds a replay frontend for one stream against port,
// with a write buffer of wbEntries slots (use the recording geometry's
// WriteBuffer for bit-identical replay).
func NewReplayCore(id int, ops Ops, port coherence.CorePort, wbEntries int) *ReplayCore {
	if wbEntries <= 0 {
		panic("trace: replay write buffer must have at least one entry")
	}
	c := &ReplayCore{ID: id, port: port, cur: ops.Cursor(), n: ops.Len(), wb: cpu.NewWriteBuffer(wbEntries)}
	c.Loads.SetName(fmt.Sprintf("replay%d.loads", id))
	c.Stores.SetName(fmt.Sprintf("replay%d.stores", id))
	c.RMWs.SetName(fmt.Sprintf("replay%d.rmws", id))
	c.Fences.SetName(fmt.Sprintf("replay%d.fences", id))
	c.Instructions.SetName(fmt.Sprintf("replay%d.instructions", id))
	c.WBForwards.SetName(fmt.Sprintf("replay%d.wb_forwards", id))
	if c.op, c.more = c.cur.Next(); c.more {
		// The stream's anchor is cycle 0; the first op's Gap is its
		// absolute first-attempt cycle.
		c.readyAt = sim.Cycle(c.op.Gap)
	} else {
		c.halted = true
	}
	c.loadCb = func(uint64) {
		c.waiting = false
		c.waker.Wake()
	}
	c.rmwCb = func(uint64) {
		c.waiting = false
		c.waker.Wake()
	}
	c.storeCb = func() {
		c.wb.Pop()
		c.waker.Wake()
	}
	c.fenceCb = func() {
		c.waiting = false
		c.waker.Wake()
	}
	c.fAdd = func(old uint64) (uint64, bool) { return old + c.rmwA, true }
	c.fXchg = func(old uint64) (uint64, bool) { return c.rmwA, true }
	c.fCas = func(old uint64) (uint64, bool) {
		if old == c.rmwA {
			return c.rmwB, true
		}
		return 0, false
	}
	return c
}

// BindWaker implements sim.WakeSink (see the waker field).
func (c *ReplayCore) BindWaker(w sim.Waker) { c.waker = w }

// SetStalls attaches the stall-attribution histograms.
func (c *ReplayCore) SetStalls(s *obs.CoreStalls) { c.stalls.Attach(s) }

// Done reports whether the stream is exhausted and all writes drained.
func (c *ReplayCore) Done() bool {
	return c.halted && c.wb.Empty() && !c.waiting
}

// Counts implements system.Frontend.
func (c *ReplayCore) Counts() (loads, stores, rmws, fences, instrs int64) {
	return c.Loads.Value(), c.Stores.Value(), c.RMWs.Value(),
		c.Fences.Value(), c.Instructions.Value()
}

// ObsCounters implements system.Frontend.
func (c *ReplayCore) ObsCounters() []*stats.Counter {
	return []*stats.Counter{&c.Loads, &c.Stores, &c.RMWs, &c.Fences,
		&c.Instructions, &c.WBForwards}
}

// Tick advances the replay core one cycle. Structure mirrors
// cpu.Core.Tick: drain the write buffer first, then dispatch.
func (c *ReplayCore) Tick(now sim.Cycle) {
	c.wb.Drain(now, c.port, c.storeCb)

	if c.halted {
		if c.Done() && c.FinishCycle == 0 {
			c.FinishCycle = now
		}
		return
	}
	if c.waiting {
		return
	}
	if c.gapArmed {
		// The async callback fired earlier this cycle (in the L1's tick or
		// as a completion event); anchor the next op's ready time on it.
		c.readyAt = now + sim.Cycle(c.op.Gap)
		c.gapArmed = false
	}
	if now < c.readyAt {
		return
	}
	if c.stalls.On() {
		c.stalls.Close(now)
	}
	c.attempt(now)
}

// attempt issues the current op; on rejection it stays current and is
// retried next tick.
func (c *ReplayCore) attempt(now sim.Cycle) {
	op := &c.op
	switch op.Kind {
	case config.TraceLoad:
		c.doLoad(now, op)
	case config.TraceStore:
		c.doStore(now, op)
	case config.TraceRMWAdd, config.TraceRMWXchg, config.TraceCAS:
		c.doAtomic(now, op)
	case config.TraceFence:
		c.doFence(now)
	case config.TraceHalt:
		c.halted = true
		c.retire()
	default:
		panic(fmt.Sprintf("trace: replay core %d: bad op kind %d", c.ID, op.Kind))
	}
}

// finishSync completes a synchronously-retiring op: the next op's gap is
// anchored on the current cycle (the gap already covers this op's own
// cycle).
func (c *ReplayCore) finishSync(now sim.Cycle) {
	c.retire()
	if c.more {
		c.readyAt = now + sim.Cycle(c.op.Gap)
	}
}

// finishAsync completes an op whose callback will arrive later: the
// next op's gap is anchored on the callback cycle, resolved by the
// gapArmed step in Tick.
func (c *ReplayCore) finishAsync() {
	c.retire()
	c.waiting = true
	if c.more {
		c.gapArmed = true
	}
}

// retire counts the current op's instructions and decodes the next op
// into its place. Callers are done with the op's fields by then.
func (c *ReplayCore) retire() {
	c.Instructions.Add(c.op.Instrs)
	c.idx++
	c.op, c.more = c.cur.Next()
}

func (c *ReplayCore) doLoad(now sim.Cycle, op *Op) {
	// Store→load forwarding against the replayed write buffer: the
	// buffer holds the same entries the recorded core's did, so the
	// forwarding decision reproduces.
	if _, ok := c.wb.Forward(op.Addr); ok {
		c.Loads.Inc()
		c.WBForwards.Inc()
		c.finishSync(now)
		return
	}
	if !c.port.Load(now, op.Addr, c.loadCb) {
		c.stalls.Open(now, obs.StallPortBusy)
		return // port busy; retry next tick
	}
	c.stalls.Open(now, obs.StallMissOutstanding)
	c.Loads.Inc()
	c.finishAsync()
}

func (c *ReplayCore) doStore(now sim.Cycle, op *Op) {
	if c.wb.Full() {
		c.stalls.Open(now, obs.StallWBFull)
		return // write buffer full; retry
	}
	c.wb.Push(op.Addr, op.Val)
	c.Stores.Inc()
	c.finishSync(now)
}

func (c *ReplayCore) doAtomic(now sim.Cycle, op *Op) {
	if !c.wb.Empty() {
		c.stalls.Open(now, obs.StallFenceDrain)
		return // locked ops drain the write buffer first
	}
	var f func(old uint64) (uint64, bool)
	c.rmwA = op.Val
	switch op.Kind {
	case config.TraceRMWAdd:
		f = c.fAdd
	case config.TraceRMWXchg:
		f = c.fXchg
	default:
		c.rmwB = op.Val2
		f = c.fCas
	}
	if !c.port.RMW(now, op.Addr, f, c.rmwCb) {
		c.stalls.Open(now, obs.StallPortBusy)
		return
	}
	c.stalls.Open(now, obs.StallMissOutstanding)
	c.RMWs.Inc()
	c.finishAsync()
}

func (c *ReplayCore) doFence(now sim.Cycle) {
	if !c.wb.Empty() {
		c.stalls.Open(now, obs.StallFenceDrain)
		return
	}
	if !c.port.Fence(now, c.fenceCb) {
		c.stalls.Open(now, obs.StallPortBusy)
		return
	}
	c.stalls.Open(now, obs.StallFenceDrain)
	c.Fences.Inc()
	c.finishAsync()
}

// NextWake implements sim.WakeHinter; the cases mirror cpu.Core's, with
// readyAt standing in for the instruction stall.
func (c *ReplayCore) NextWake(now sim.Cycle) sim.Cycle {
	if c.wb.Ready() {
		return now + 1 // a freshly buffered store to issue
	}
	if c.halted || c.waiting {
		return sim.WakeNever
	}
	if c.gapArmed {
		return now + 1 // anchor resolves on the next tick
	}
	if now+1 < c.readyAt {
		return c.readyAt
	}
	return now + 1
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (c *ReplayCore) ComponentLabel() string { return fmt.Sprintf("replay core %d", c.ID) }

// Debug renders the replay state (deadlock diagnostics).
func (c *ReplayCore) Debug() string {
	return fmt.Sprintf("replay core %d: op %d/%d halted=%v waiting=%v wb=%d inflight=%v readyAt=%d",
		c.ID, c.idx, c.n, c.halted, c.waiting, c.wb.Len(), c.wb.InFlight(), c.readyAt)
}
