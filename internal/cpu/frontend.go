package cpu

import (
	"fmt"
	"strconv"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the TSO front end Core and trace.ReplayCore share:
// Front, with its write buffer and stall attribution. Both embed one
// Front and issue every memory op through it, so a replay's forwarding,
// drain, retry and stall decisions are the recorded core's by
// construction.

// Outcome is what one issue attempt did.
type Outcome uint8

const (
	// Rejected: nothing issued (port busy, write buffer full, or a
	// locked op waiting for the buffer to drain); retry next tick.
	Rejected Outcome = iota
	// Sync: the op completed on this cycle (a store entered the write
	// buffer, a load was forwarded from it).
	Sync
	// Async: the op issued and the front end waits for its callback (a
	// load, an RMW, a fence).
	Async
)

// Front is the memory side of a TSO front end: the port into its L1,
// the write buffer, the completion callbacks, the retirement counters
// and stall attribution, and the Tick / NextWake prologues. The
// embedding front end decides what to issue and when; Front decides
// whether it issues.
type Front struct {
	ID   int
	name string // counter and stall-histogram prefix: "core3", "replay3"
	port coherence.CorePort
	wb   WriteBuffer

	waiting bool // blocked on an outstanding load/RMW/fence callback
	halted  bool

	// waker marks the front end due when one of its completion callbacks
	// fires — inside the L1's tick for a miss, or as an engine completion
	// event at the start of the cycle for a hit; either way earlier in the
	// same cycle than the front end's turn. That is the only way a blocked
	// front end is re-enabled, and under wake-set scheduling the engine
	// ticks only components that were marked due. A load, RMW or fence
	// callback reads the cycle from it and wakes the front end at the
	// cycle resume names (see complete); a store callback wakes it only
	// when another buffered store waits to issue.
	waker sim.Waker

	// resume is the embedding front end's completion hook, run on the
	// cycle a load, RMW or fence callback fires: it retires what the
	// completion unblocks and returns the cycle the front end's next
	// dispatch is due. deferred holds the call for the next Begin when
	// the waker is unbound (a hand-driven front end has no engine clock).
	resume   func(now sim.Cycle) sim.Cycle
	deferred bool

	// Completion callbacks handed to the L1. At most one load/RMW, one
	// store and one fence are outstanding, so one preallocated closure per
	// kind (with the variable bits in fields) keeps the issue path
	// allocation-free. valCb serves loads and RMWs: it writes the value
	// to dst, the in-flight op's destination.
	valCb   func(val uint64)
	storeCb func()
	fenceCb func()
	dst     *int64

	// Preallocated RMW modify functions; the operands of the in-flight
	// atomic live in rmwA/rmwB.
	fAdd, fXchg, fCas func(old uint64) (uint64, bool)
	rmwA, rmwB        uint64

	Loads        stats.Counter
	Stores       stats.Counter
	RMWs         stats.Counter
	Fences       stats.Counter
	Instructions stats.Counter
	WBForwards   stats.Counter
	WBFullStalls stats.Counter

	// Stall attribution. Recorded compute gaps are not stalls; a batched
	// core attributes its run interiors itself (Core.executeRun).
	stalls Stalls
}

// counterSuffixes names ObsCounters' entries, in order.
var counterSuffixes = [...]string{"loads", "stores", "rmws", "fences",
	"instructions", "wb_forwards", "wb_full_stalls"}

// Init sets f up as front end prefix+id ("core3", "replay3") on port,
// with a write buffer of wbEntries slots and resume as its completion
// hook (see the resume field). The callbacks capture f, so Init runs on
// the Front inside its heap-allocated front end, never on a copy.
func (f *Front) Init(prefix string, id int, port coherence.CorePort, wbEntries int, resume func(now sim.Cycle) sim.Cycle) {
	if wbEntries <= 0 {
		panic("cpu: write buffer must have at least one entry")
	}
	f.ID, f.name, f.port, f.wb = id, prefix+strconv.Itoa(id), port, NewWriteBuffer(wbEntries)
	f.resume = resume
	for i, c := range f.ObsCounters() {
		c.SetName(f.name + "." + counterSuffixes[i])
	}
	f.valCb = func(val uint64) {
		*f.dst = int64(val)
		f.complete()
	}
	f.storeCb = func() {
		f.wb.Pop()
		if f.wb.HeadToIssue() {
			f.waker.Wake()
		}
	}
	f.fenceCb = f.complete
	f.fAdd = func(old uint64) (uint64, bool) { return old + f.rmwA, true }
	f.fXchg = func(old uint64) (uint64, bool) { return f.rmwA, true }
	f.fCas = func(old uint64) (uint64, bool) {
		if old == f.rmwA {
			return f.rmwB, true
		}
		return 0, false
	}
}

// Name reports the front end's counter and stall-histogram prefix.
func (f *Front) Name() string { return f.name }

// BindWaker implements sim.WakeSink (see the waker field).
func (f *Front) BindWaker(w sim.Waker) { f.waker = w }

// SetStalls attaches the stall-attribution histograms. Nil (the
// default) keeps every stall path branch-only.
func (f *Front) SetStalls(s *obs.CoreStalls) { f.stalls.Attach(s) }

// Done reports whether the front end has halted and fully drained its
// writes.
func (f *Front) Done() bool {
	return f.halted && f.wb.Empty() && !f.waiting
}

// Counts implements system.Frontend: the counters aggregated into a
// run's Result.
func (f *Front) Counts() (loads, stores, rmws, fences, instrs int64) {
	return f.Loads.Value(), f.Stores.Value(), f.RMWs.Value(),
		f.Fences.Value(), f.Instructions.Value()
}

// ObsCounters implements system.Frontend.
func (f *Front) ObsCounters() []*stats.Counter {
	return []*stats.Counter{&f.Loads, &f.Stores, &f.RMWs, &f.Fences,
		&f.Instructions, &f.WBForwards, &f.WBFullStalls}
}

// Halt stops dispatch; the front end is done once its writes drain.
func (f *Front) Halt() { f.halted = true }

// Begin is the Tick prologue: issue the write buffer's head store, run
// a deferred completion hook, and report whether the front end may
// dispatch this cycle (it is neither halted nor waiting on a callback).
func (f *Front) Begin(now sim.Cycle) bool {
	f.wb.Drain(now, f.port, f.storeCb)
	if f.halted {
		return false
	}
	if f.deferred {
		f.deferred = false
		f.resume(now)
	}
	return !f.waiting
}

// complete ends the wait on a load, RMW or fence on the cycle its
// callback fires. The resume hook retires what the completion unblocks
// and names the cycle the next dispatch is due; the front end wakes
// then, or on the callback cycle itself when the write buffer has a head
// for that cycle's Begin to issue. Unbound (hand-driven), the hook runs
// in the next Begin instead, on that tick's cycle.
func (f *Front) complete() {
	f.waiting = false
	now, ok := f.waker.Now()
	if !ok {
		f.deferred = true
		return
	}
	next := f.resume(now)
	if f.wb.HeadToIssue() {
		next = now
	}
	f.waker.WakeAt(next)
}

// Dispatch ends the open stall episode: the front end makes an attempt
// this cycle. Close does not inline, hence the guard.
func (f *Front) Dispatch(now sim.Cycle) {
	if f.stalls.On() {
		f.stalls.Close(now)
	}
}

// NextWakeFrom is the NextWake body, given the cycle the embedding front
// end's next op is ready: a freshly buffered store wakes it next cycle,
// and while halted or waiting only a callback wakes it.
func (f *Front) NextWakeFrom(now, ready sim.Cycle) sim.Cycle {
	if f.wb.Ready() {
		return now + 1
	}
	if f.halted || f.waiting {
		return sim.WakeNever
	}
	if now+1 < ready {
		return ready
	}
	return now + 1
}

// IssueLoad loads addr into *dst: Sync when the write buffer forwards
// it (TSO: a core reads its own pending writes, the youngest first),
// Async when the port accepts it, Rejected while the port is busy.
func (f *Front) IssueLoad(now sim.Cycle, addr uint64, dst *int64) Outcome {
	if val, ok := f.wb.Forward(addr); ok {
		*dst = int64(val)
		f.Loads.Inc()
		f.WBForwards.Inc()
		return Sync
	}
	f.dst = dst
	if !f.port.Load(now, addr, f.valCb) {
		f.stalls.Open(now, obs.StallPortBusy)
		return Rejected
	}
	f.Loads.Inc()
	return f.await(now, obs.StallMissOutstanding)
}

// IssueStore commits a store into the write buffer (Sync), or is
// Rejected while the buffer is full.
func (f *Front) IssueStore(now sim.Cycle, addr, val uint64) Outcome {
	if f.wb.Full() {
		f.WBFullStalls.Inc()
		f.stalls.Open(now, obs.StallWBFull)
		return Rejected
	}
	f.wb.Push(addr, val)
	f.Stores.Inc()
	return Sync
}

// IssueAtomic issues a locked read-modify-write of addr whose old value
// lands in *dst: kind TraceRMWAdd adds a, TraceRMWXchg swaps in a,
// TraceCAS swaps in b if the old value is a. x86 locked operations drain
// the write buffer first, so it is Rejected until the buffer is empty,
// then while the port is busy.
func (f *Front) IssueAtomic(now sim.Cycle, kind config.TraceOp, addr, a, b uint64, dst *int64) Outcome {
	if !f.wb.Empty() {
		f.stalls.Open(now, obs.StallFenceDrain)
		return Rejected
	}
	fn := f.fCas
	switch kind {
	case config.TraceRMWAdd:
		fn = f.fAdd
	case config.TraceRMWXchg:
		fn = f.fXchg
	}
	f.rmwA, f.rmwB, f.dst = a, b, dst
	if !f.port.RMW(now, addr, fn, f.valCb) {
		f.stalls.Open(now, obs.StallPortBusy)
		return Rejected
	}
	f.RMWs.Inc()
	return f.await(now, obs.StallMissOutstanding)
}

// IssueFence issues a full barrier: Rejected until the write buffer has
// drained, then while the port is busy.
func (f *Front) IssueFence(now sim.Cycle) Outcome {
	if !f.wb.Empty() {
		f.stalls.Open(now, obs.StallFenceDrain)
		return Rejected
	}
	if !f.port.Fence(now, f.fenceCb) {
		f.stalls.Open(now, obs.StallPortBusy)
		return Rejected
	}
	f.Fences.Inc()
	return f.await(now, obs.StallFenceDrain)
}

// await blocks the front end on the op just issued, attributing the
// wait to why.
func (f *Front) await(now sim.Cycle, why obs.StallReason) Outcome {
	f.stalls.Open(now, why)
	f.waiting = true
	return Async
}

// State renders the shared part of a front end's Debug line.
func (f *Front) State() string {
	return fmt.Sprintf("halted=%v waiting=%v wb=%d inflight=%v",
		f.halted, f.waiting, f.wb.Len(), f.wb.InFlight())
}

// WriteBuffer is a TSO core's FIFO store buffer in front of its L1:
// committed stores enter at the tail and drain from the head one at a
// time, each issued only after its predecessor's Store callback (w→w
// order), while loads search it youngest first (store→load
// forwarding). It is a fixed-capacity ring, so steady-state store
// traffic allocates nothing.
type WriteBuffer struct {
	ring     []wbEntry
	head, n  int  // oldest entry's slot; entries buffered (the issued head included)
	inFlight bool // the head store is issued, awaiting its callback
	stalled  bool // the last issue attempt was declined by the L1
}

type wbEntry struct {
	addr uint64
	val  uint64
}

// NewWriteBuffer returns an empty buffer of the given capacity.
func NewWriteBuffer(entries int) WriteBuffer {
	return WriteBuffer{ring: make([]wbEntry, entries)}
}

// Len reports the buffered stores, the issued head included.
func (b *WriteBuffer) Len() int { return b.n }

// Empty reports whether every store has retired (an issued store stays
// buffered until its callback). Fences and atomics wait for it.
func (b *WriteBuffer) Empty() bool { return b.n == 0 }

// Full reports whether a committing store must wait for a slot.
func (b *WriteBuffer) Full() bool { return b.n >= len(b.ring) }

// InFlight reports whether the head store is issued and unacknowledged.
func (b *WriteBuffer) InFlight() bool { return b.inFlight }

// HeadToIssue reports whether a buffered head store is not in flight:
// the next Begin issues (or retries) it.
func (b *WriteBuffer) HeadToIssue() bool { return b.n > 0 && !b.inFlight }

// Ready reports whether the head store waits to be issued: neither in
// flight nor just declined. A declined head is retried on the cycle the
// core's own completion wakes it (see Drain), so it needs no wake of
// its own.
func (b *WriteBuffer) Ready() bool { return b.n > 0 && !b.inFlight && !b.stalled }

// slot maps the i-th oldest entry (0 <= i <= n) to its ring index.
// head+i stays below 2*len(ring), so one compare wraps it: the depth is
// a run-time value and a modulo here is a division on every store,
// drain and forwarded-load probe.
func (b *WriteBuffer) slot(i int) int {
	s := b.head + i
	if s >= len(b.ring) {
		s -= len(b.ring)
	}
	return s
}

// Push buffers a committed store; the caller has checked Full.
func (b *WriteBuffer) Push(addr, val uint64) {
	b.ring[b.slot(b.n)] = wbEntry{addr: addr, val: val}
	b.n++
}

// Forward returns the value of the youngest buffered store to addr, if
// any: TSO requires a core's reads to see its own pending writes.
func (b *WriteBuffer) Forward(addr uint64) (uint64, bool) {
	for i := b.n - 1; i >= 0; i-- {
		if e := &b.ring[b.slot(i)]; e.addr == addr {
			return e.val, true
		}
	}
	return 0, false
}

// Drain issues the head store to port unless one is in flight; cb is
// the core's Store callback, which must call Pop. It runs on every
// front-end tick, so the nothing-to-issue check inlines into Begin.
func (b *WriteBuffer) Drain(now sim.Cycle, port coherence.CorePort, cb func()) {
	if b.HeadToIssue() {
		b.issue(now, port, cb)
	}
}

func (b *WriteBuffer) issue(now sim.Cycle, port coherence.CorePort, cb func()) {
	head := b.ring[b.head]
	if port.Store(now, head.addr, head.val, cb) {
		b.inFlight = true
		b.stalled = false
		return
	}
	// The L1 declined. Every decline reason is a transaction this same
	// core has in flight (a same-block load/RMW, or its own write), and
	// every such transaction completes by firing one of this core's
	// callbacks — from the L1's tick or as an engine completion event,
	// and either way calling waker.Wake — so the retry is re-dispatched
	// on exactly the cycle the L1 frees up. This invariant is
	// load-bearing under wake-set scheduling: a stalled head with the
	// core otherwise quiescent reports WakeNever, so an L1 decline
	// reason with no pending same-core callback would be a lost-wakeup
	// deadlock. Do not add one. (Every callback wakes the core on its
	// own cycle while HeadToIssue holds, which a declined head does.)
	b.stalled = true
}

// Pop retires the head store once its Store callback fires.
func (b *WriteBuffer) Pop() {
	b.head = b.slot(1)
	b.n--
	b.inFlight = false
}

// Stalls attributes a core's stall cycles to reasons (internal/obs).
// Episodes are interval-based because the wake-set engine skips a
// stalled core's idle cycles entirely: an episode opens at the tick
// that detects the stall and closes at the next tick that makes
// progress, so the observed length covers skipped cycles too. With no
// histograms attached (the default) Open is one branch; Close does not
// inline, so per-tick callers guard it with On.
type Stalls struct {
	hist  *obs.CoreStalls
	why   obs.StallReason // obs.StallNone: no episode open
	start sim.Cycle
}

// Attach sets the histograms episodes are observed into; nil detaches.
func (s *Stalls) Attach(h *obs.CoreStalls) {
	s.hist = h
	s.why = obs.StallNone
}

// On reports whether histograms are attached.
func (s *Stalls) On() bool { return s.hist != nil }

// Open begins an episode at now unless one is already open (a
// continuing stall keeps its original start and reason).
func (s *Stalls) Open(now sim.Cycle, why obs.StallReason) {
	if s.hist == nil || s.why != obs.StallNone {
		return
	}
	s.why = why
	s.start = now
}

// Close observes and ends the open episode, if any.
func (s *Stalls) Close(now sim.Cycle) {
	if s.hist == nil || s.why == obs.StallNone {
		return
	}
	s.hist.Observe(s.why, int64(now-s.start))
	s.why = obs.StallNone
}
