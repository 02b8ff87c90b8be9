package coherence

import "repro/internal/sim"

// timerEvent is one deferred action: cb(now, msg).
type timerEvent struct {
	msg *Msg
	cb  func(now sim.Cycle, m *Msg)
}

// Timers schedules a directory tile's deferred actions (memory fills,
// delayed sends), each a callback on a message: the callbacks are
// values the controller binds once, so scheduling allocates nothing.
// Actions scheduled for the same cycle run in scheduling order, keeping
// controllers deterministic.
// The store is the shared EventHeap ordered by (cycle, scheduling
// sequence), so the earliest deadline is exposed in O(1) for the
// engine's wake hints and firing is allocation-free in steady state.
//
// Every scheduled action also wakes the owning controller at its due
// cycle through the bound sim.Waker, since under wake-set scheduling the
// engine re-polls the owner's NextWake only after it ticks. L1 hits do
// not come through here: their only effect is the core's callback, which
// they file as an engine completion event (L1Base.CompleteVal).
type Timers struct {
	heap  EventHeap[timerEvent]
	waker sim.Waker
}

// SetWaker binds the owning controller's wake handle; every subsequent
// schedule marks the owner due at the action's cycle.
func (t *Timers) SetWaker(w sim.Waker) { t.waker = w }

// AtMsg schedules cb(now, m) at cycle c (or the next tick if c is in
// the past). cb should be a callback value stored once by the
// controller, e.g. its send method, so that scheduling does not
// allocate.
func (t *Timers) AtMsg(c sim.Cycle, cb func(now sim.Cycle, m *Msg), m *Msg) {
	t.heap.PushAuto(c, timerEvent{cb: cb, msg: m})
	t.waker.WakeAt(c)
}

// Tick runs every action due at or before now, in (cycle, scheduling)
// order.
func (t *Timers) Tick(now sim.Cycle) {
	for {
		it := t.heap.MinItem()
		if it == nil || it.Cycle > now {
			return
		}
		// Copy the payload out before dropping the slot: the callback may
		// schedule new timers, which reuses the heap storage.
		ev := it.Item
		t.heap.DropMin()
		ev.cb(now, ev.msg)
	}
}

// NextDue reports the earliest scheduled cycle (engine wake hint).
func (t *Timers) NextDue() (sim.Cycle, bool) { return t.heap.Min() }

// Pending reports the number of scheduled actions (deadlock diagnostics).
func (t *Timers) Pending() int { return t.heap.Len() }
