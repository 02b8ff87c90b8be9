package coherence

import "repro/internal/sim"

// timerEvent is one deferred action: cb(now, msg) at cycle at. seq is
// its scheduling order, which breaks same-cycle ties.
type timerEvent struct {
	at  sim.Cycle
	seq uint64
	msg *Msg
	cb  func(now sim.Cycle, m *Msg)
}

// Timers schedules a directory tile's deferred actions (memory fills,
// delayed sends), each a callback on a message: the callbacks are
// values the controller binds once, so scheduling allocates nothing.
// Actions scheduled for the same cycle run in scheduling order, keeping
// controllers deterministic.
// The store is a binary min-heap ordered by (cycle, scheduling order),
// so the earliest deadline is exposed in O(1) for the engine's wake
// hints and firing is allocation-free in steady state (the backing slice
// is reused after pops).
//
// Every scheduled action also wakes the owning controller at its due
// cycle through the bound sim.Waker, since under wake-set scheduling the
// engine re-polls the owner's NextWake only after it ticks. L1 hits and
// mesh deliveries do not come through here: they are engine completion
// events (sim.Waker.CompleteAt / DoneAt).
type Timers struct {
	h     []timerEvent
	seq   uint64
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
	t.h = append(t.h, timerEvent{at: c, seq: t.seq, cb: cb, msg: m})
	t.seq++
	for i := len(t.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !t.less(i, p) {
			break
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
	t.waker.WakeAt(c)
}

func (t *Timers) less(i, j int) bool {
	a, b := &t.h[i], &t.h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Tick runs every action due at or before now, in (cycle, scheduling)
// order.
func (t *Timers) Tick(now sim.Cycle) {
	for len(t.h) > 0 && t.h[0].at <= now {
		// Copy the action out before dropping its slot: the callback may
		// schedule new timers, which reuses the heap storage.
		ev := t.h[0]
		t.dropMin()
		ev.cb(now, ev.msg)
	}
}

// dropMin removes the earliest action. The vacated slot is zeroed so
// the backing array drops its message and callback references.
func (t *Timers) dropMin() {
	n := len(t.h) - 1
	t.h[0] = t.h[n]
	t.h[n] = timerEvent{}
	t.h = t.h[:n]
	for i := 0; ; {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && t.less(l, s) {
			s = l
		}
		if r < n && t.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		t.h[i], t.h[s] = t.h[s], t.h[i]
		i = s
	}
}

// NextDue reports the earliest scheduled cycle (engine wake hint).
func (t *Timers) NextDue() (sim.Cycle, bool) {
	if len(t.h) == 0 {
		return 0, false
	}
	return t.h[0].at, true
}

// Pending reports the number of scheduled actions (deadlock diagnostics).
func (t *Timers) Pending() int { return len(t.h) }
