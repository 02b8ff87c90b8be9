package cpu

import (
	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file holds the TSO front end Core and trace.ReplayCore share: the
// write buffer and stall attribution. Sharing them is what keeps a
// replay's forwarding, drain and stall decisions those of the recorded
// core.

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
// the core's Store callback, which must call Pop.
func (b *WriteBuffer) Drain(now sim.Cycle, port coherence.CorePort, cb func()) {
	if b.inFlight || b.n == 0 {
		return
	}
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
	// deadlock. Do not add one.
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
