package sim

import (
	"math/bits"
	"testing"
)

// checkWheel asserts the due wheel indexes dueAt exactly: every
// component with a finite due cycle has one entry for it — in the ring
// slot of that cycle, which must lie inside the window, or in far —
// quiescent components have none, every completion sits in its cycle's
// slot inside the window or in the far list, and the occupancy word and
// the far minimum agree with the masks and the completions. The slot being dispatched is the
// dispatch mask: it may hold only components whose turn is still ahead,
// and a folded component's bit there comes on top of its dueAt entry.
func checkWheel(t *testing.T, e *Engine) {
	t.Helper()
	cur := -1
	if e.pos < len(e.tickers) { // mid-dispatch
		cur = int(e.now) & (wheelSlots - 1)
	}
	entries := make([]int, len(e.dueAt)) // ring entries filed for dueAt[id]
	for s := 0; s < wheelSlots; s++ {
		n := 0
		for w, word := range e.wheel[s*e.words : (s+1)*e.words] {
			for ; word != 0; word &= word - 1 {
				n++
				id := w<<6 + bits.TrailingZeros64(word)
				d := e.dueAt[id]
				if s == cur {
					if id <= e.pos {
						t.Errorf("component %d is in the dispatch mask after its turn (pos %d)", id, e.pos)
					}
					if d != e.now {
						continue // a fold
					}
				}
				entries[id]++
				if d == WakeNever || int(d)&(wheelSlots-1) != s {
					t.Errorf("component %d due %d has a ring entry in slot %d", id, d, s)
				}
			}
		}
		for _, ev := range e.evs[s] {
			if int(ev.at)&(wheelSlots-1) != s || ev.at <= e.now || ev.at-e.now >= wheelSlots {
				t.Errorf("completion due %d sits in slot %d at %d", ev.at, s, e.now)
			}
		}
		// Dispatch clears the current slot's bit when the pass ends.
		if s != cur && (e.occ>>uint(s))&1 == 1 != (n > 0 || len(e.evs[s]) > 0) {
			t.Errorf("slot %d occupancy bit disagrees with its %d entries and %d completions", s, n, len(e.evs[s]))
		}
	}
	farMin := WakeNever
	for _, ev := range e.farEvs {
		if ev.at-e.now < wheelSlots {
			t.Errorf("completion due %d sits in far inside the window at %d", ev.at, e.now)
		}
		farMin = min(farMin, ev.at)
	}
	for id, d := range e.dueAt {
		inFar := e.far[id>>6]&(1<<(uint(id)&63)) != 0
		switch {
		case d == WakeNever:
			if inFar || entries[id] != 0 {
				t.Errorf("quiescent component %d is filed (far=%v, ring entries=%d)", id, inFar, entries[id])
			}
		case inFar:
			if entries[id] != 0 {
				t.Errorf("component %d due %d is in far and in the ring", id, d)
			}
			if d-e.now < wheelSlots {
				t.Errorf("component %d due %d sits in far inside the window at %d", id, d, e.now)
			}
			if d < farMin {
				farMin = d
			}
		default:
			if entries[id] != 1 {
				t.Errorf("component %d due %d has %d ring entries, want 1", id, d, entries[id])
			}
			if d < e.now || d-e.now >= wheelSlots {
				t.Errorf("component %d due %d has a ring entry outside the window at %d", id, d, e.now)
			}
		}
	}
	if e.farMin != farMin {
		t.Errorf("farMin = %d, far set minimum is %d", e.farMin, farMin)
	}
}

// drainToy models a controller that handles everything pending whenever
// it is ticked: woken early, the work it had hinted for a later cycle is
// done and the hint evaporates. It has no Doner side; pair it with one.
type drainToy struct {
	pending Cycle // hinted cycle of the pending work, WakeNever if none
	waker   Waker
	ticks   []Cycle
}

func (d *drainToy) BindWaker(w Waker) { d.waker = w }
func (d *drainToy) Tick(now Cycle)    { d.ticks = append(d.ticks, now); d.pending = WakeNever }
func (d *drainToy) NextWake(now Cycle) Cycle {
	return d.pending
}

// TestFoldedComponentLeavesNoFutureEntry: a component holding a future
// due entry — in the ring, in its last slot, or in the far set — that is
// ticked early through a same-cycle fold and then hints WakeNever must
// not be dispatched again at the old cycle: the fold removes the entry,
// so the engine leaps straight to the next real work. (The scan-based
// scheduler paid one empty dispatch at the evaporated cycle.)
func TestFoldedComponentLeavesNoFutureEntry(t *testing.T) {
	for _, dist := range []Cycle{10, wheelSlots - 1, wheelSlots, wheelSlots + 1, 3 * wheelSlots} {
		const foldAt = Cycle(5)
		const last = foldAt + 4*wheelSlots
		drain := &drainToy{}
		e := NewEngine(10_000)
		src := &scriptTicker{at: foldAt, run: func(now Cycle) {
			checkWheel(t, e)
			drain.waker.Wake() // forward, same cycle: folds into this dispatch
			checkWheel(t, e)
		}}
		e.Register(src)
		e.Register(drain)
		e.Register(newTimedTicker(last))
		e.resetDue()
		e.advance(1)
		// Cycle 1: everything ticks once; drain then hints WakeNever. Its
		// next wake is filed at distance dist: ring, its last slot, far.
		e.dispatch()
		drain.pending = e.now + dist
		drain.waker.WakeAt(drain.pending)
		checkWheel(t, e)

		var dispatched []Cycle
		for next := e.nextDue(); next != WakeNever; next = e.nextDue() {
			e.advance(next)
			e.dispatch()
			checkWheel(t, e)
			dispatched = append(dispatched, next)
		}
		if len(dispatched) != 2 || dispatched[0] != foldAt || dispatched[1] != last {
			t.Fatalf("distance %d: dispatched cycles %v, want [%d %d]", dist, dispatched, foldAt, last)
		}
		if len(drain.ticks) != 2 || drain.ticks[1] != foldAt {
			t.Fatalf("distance %d: drain ticked at %v, want [1 %d]", dist, drain.ticks, foldAt)
		}
	}
}

// TestFarEntryLoweredIntoWindow: a component waiting on a far timer is
// stimulated for a near cycle; its entry must move from the far set
// into the ring (and the far minimum must follow), it must act at the
// near cycle, and the timer must still fire.
func TestFarEntryLoweredIntoWindow(t *testing.T) {
	var log []workRec
	far := Cycle(3 * wheelSlots)
	toy := &stimToy{id: 0, log: &log, selfDue: []Cycle{far}}
	other := &stimToy{id: 1, log: &log, selfDue: []Cycle{far + wheelSlots}}
	e := NewEngine(10_000)
	src := &scriptTicker{at: 5, run: func(now Cycle) {
		if e.farMin != far {
			t.Errorf("farMin = %d before the lowering, want %d", e.farMin, far)
		}
		toy.AddStim(now + 2)
		if e.farMin != far+wheelSlots {
			t.Errorf("farMin = %d after the lowering, want %d", e.farMin, far+wheelSlots)
		}
		checkWheel(t, e)
	}}
	e.Register(toy)
	e.Register(other)
	e.Register(src)
	cycles, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareWork(t, log, []workRec{{0, 7}, {0, far}, {1, far + wheelSlots}})
	if cycles != far+wheelSlots {
		t.Fatalf("cycles = %d, want %d", cycles, far+wheelSlots)
	}
	// Dispatched: 1 (everything), 5, 7, far, far+wheelSlots.
	if want := int64(cycles) - 5; e.IdleSkipped != want {
		t.Fatalf("IdleSkipped = %d, want %d", e.IdleSkipped, want)
	}
}

// TestMergeWakeIntoLaggingShard: a wake filed between windows, into an
// engine whose clock lags it by more than the ring, lands in the far
// set behind another far entry and is dispatched at exactly its cycle.
func TestMergeWakeIntoLaggingShard(t *testing.T) {
	const look = Cycle(2)
	sendAt := Cycle(5 * wheelSlots)
	var logA, logB []workRec
	a := &stimToy{id: 0, log: &logA, selfDue: []Cycle{1, sendAt}}
	b := &stimToy{id: 1, group: 1, log: &logB, selfDue: []Cycle{1}}
	e := NewEngine(100_000)
	e.Register(a)
	e.Register(b)
	e.RunWindow(1 + look)
	if lag := sendAt - e.Now(); lag <= wheelSlots {
		t.Fatalf("engine clock %d lags the wake by %d, want more than %d", e.Now(), lag, wheelSlots)
	}
	b.AddStim(sendAt + look)
	if e.far[0]&(1<<1) == 0 || e.dueAt[1] != sendAt+look || e.farMin != sendAt {
		t.Errorf("merge wake not in the far set (far=%b dueAt=%d farMin=%d)", e.far[0], e.dueAt[1], e.farMin)
	}
	checkWheel(t, e)
	for next := e.NextDue(); next != WakeNever; next = e.NextDue() {
		e.RunWindow(next + look)
		checkWheel(t, e)
	}
	compareWork(t, logA, []workRec{{0, 1}, {0, sendAt}})
	compareWork(t, logB, []workRec{{1, 1}, {1, sendAt + look}})
	if e.Now() != sendAt+look {
		t.Fatalf("final cycle %d, want %d", e.Now(), sendAt+look)
	}
}

// FuzzWakeWheel drives the scan-all reference properties from fuzzed
// scenario seeds: the generator covers masks wider than one word, wake
// distances on both sides of the ring's edge, far entries lowered into
// the window, same-cycle folds of components holding future entries,
// completion events near and far, and wakes filed between windows into
// a lagging engine clock.
func FuzzWakeWheel(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWakeSet(t, seed)
		checkWindowed(t, seed)
	})
}
