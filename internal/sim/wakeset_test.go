package sim

import (
	"fmt"
	"testing"
)

// workRec is one unit of observable work: toy `id` acted at cycle `at`.
// The property below asserts the full (id, at) sequence — including
// intra-cycle order — is identical between the wake-set engine and a
// scan-all reference.
type workRec struct {
	id int
	at Cycle
}

// edgeGaps are the wake distances the due wheel treats differently:
// next cycle, the ring's last slot, the first cycle that lands in the
// far set, one past it, and several ring turns out.
var edgeGaps = []Cycle{1, wheelSlots - 1, wheelSlots, wheelSlots + 1, 3 * wheelSlots}

// stimToy is a randomized component for the wake-set property test. It
// has a scripted schedule of self-driven work (selfDue, covered by
// NextWake) and accepts external stimulations (AddStim — the analogue
// of a mesh delivery or a completion callback), which wake it through
// its Waker. Whenever it does work it may, deterministically from its
// own RNG, stimulate a random peer at a random future cycle — near or
// at one of the edgeGaps — including the current cycle, in both the
// forward (peer not yet ticked) and backward (peer's turn already
// passed) directions. Some same-group stimulations travel as completion
// events instead: filed now, they stimulate the peer for the cycle they
// fire at. A toy with nothing pending hints WakeNever.
type stimToy struct {
	id    int
	peers []*stimToy
	waker Waker // zero in reference mode

	// Engine-run instrumentation (zero in reference mode): idleTicks
	// counts ticks after cycle 1 that found no work — the engine must
	// never issue one, so past the start-up dispatch (which ticks every
	// component, as per-cycle execution does) a toy's tick sequence is
	// exactly its work sequence — and check, when set, runs inside every
	// tick (the engine's wheel invariants, mid-dispatch).
	idleTicks int
	check     func()

	selfDue []Cycle // ascending; consumed from the front
	stim    []Cycle // pending external stimulations
	filed   int     // completions this toy filed that have not fired yet
	rng     *RNG
	log     *[]workRec

	// refQ, set in reference mode, receives the toy's completions in
	// place of the engine.
	refQ *[]refCompletion

	// Windowed-property-test fields (zero in the other tests): toys in
	// different groups may only stimulate each other at least `look`
	// cycles ahead, and when `route` is set those stimulations go
	// through it (the windowed run's outbox) instead of landing directly.
	group int
	look  Cycle
	route func(target *stimToy, at Cycle)
}

func (t *stimToy) BindWaker(w Waker) { t.waker = w }

// AddStim lands external work on the toy: recorded in its own state
// (visible to NextWake, like an inbox) and self-woken (like Deliver).
func (t *stimToy) AddStim(c Cycle) {
	t.stim = append(t.stim, c)
	t.waker.WakeAt(c)
}

func (t *stimToy) Tick(now Cycle) {
	worked := false
	for len(t.selfDue) > 0 && t.selfDue[0] <= now {
		t.selfDue = t.selfDue[1:]
		worked = true
	}
	kept := t.stim[:0]
	for _, c := range t.stim {
		if c <= now {
			worked = true
		} else {
			kept = append(kept, c)
		}
	}
	t.stim = kept
	if t.check != nil {
		t.check()
	}
	if !worked {
		if now > 1 {
			t.idleTicks++
		}
		return
	}
	*t.log = append(*t.log, workRec{id: t.id, at: now})
	// Deterministically derived side effects: the RNG is consumed only on
	// work events, so both engines (which must agree on the work
	// sequence) draw identical streams.
	if t.rng != nil && t.rng.Intn(2) == 0 {
		target := t.peers[t.rng.Intn(len(t.peers))]
		delta := Cycle(t.rng.Intn(4)) // 0..3; 0 = same-cycle stimulation
		if t.rng.Intn(4) == 0 {
			delta = edgeGaps[t.rng.Intn(len(edgeGaps))]
		}
		if target.group != t.group {
			if delta < t.look {
				delta = t.look // cross-group: the lookahead floor
			}
			if t.route != nil {
				t.route(target, now+delta)
				return
			}
		} else if t.rng.Intn(3) == 0 {
			t.complete(now+max(delta, 1), target)
			return
		}
		target.AddStim(now + delta)
	}
}

// refCompletion is a completion event queued by the scan-all reference.
type refCompletion struct {
	at   Cycle
	fire func()
}

// complete files a completion for cycle at that stimulates target for
// that same cycle when it fires.
func (t *stimToy) complete(at Cycle, target *stimToy) {
	t.filed++
	fire := func() {
		t.filed--
		target.AddStim(at)
	}
	if t.refQ != nil {
		*t.refQ = append(*t.refQ, refCompletion{at: at, fire: fire})
		return
	}
	t.waker.DoneAt(at, fire)
}

func (t *stimToy) NextWake(now Cycle) Cycle {
	earliest := WakeNever
	if len(t.selfDue) > 0 {
		earliest = t.selfDue[0]
	}
	for _, c := range t.stim {
		if c < earliest {
			earliest = c
		}
	}
	return earliest
}

func (t *stimToy) Done() bool { return len(t.selfDue) == 0 && len(t.stim) == 0 && t.filed == 0 }

// buildToys constructs one seeded scenario: n toys with sparse random
// self-schedules, wired as mutual peers. One scenario in four is wide
// (65-200 toys, so the dispatch masks span several words); one
// self-scheduled gap in three is an edgeGap.
func buildToys(seed uint64, log *[]workRec) []*stimToy {
	rng := NewRNG(seed)
	n := 1 + rng.Intn(8)
	if rng.Intn(4) == 0 {
		n = 65 + rng.Intn(136)
	}
	toys := make([]*stimToy, n)
	for i := range toys {
		toys[i] = &stimToy{id: i, rng: NewRNG(seed*1000 + uint64(i)), log: log}
	}
	work := false
	for _, t := range toys {
		t.peers = toys
		c := Cycle(0)
		for k := rng.Intn(20); k > 0; k-- {
			if rng.Intn(3) == 0 {
				c += edgeGaps[rng.Intn(len(edgeGaps))]
			} else {
				c += 1 + Cycle(rng.Intn(200))
			}
			t.selfDue = append(t.selfDue, c)
			work = true
		}
	}
	// Guarantee at least one unit of work so Run has something to do.
	if !work {
		toys[0].selfDue = append(toys[0].selfDue, 1)
	}
	return toys
}

// runReference executes the scan-all baseline: at every step, poll every
// component's NextWake and the earliest queued completion, leap to the
// earliest, fire that cycle's completions in filing order, then tick ALL
// components in registration order. This is the old event engine's
// contract (plus completions, which no component had to hint); toys
// record work only when they actually have some, so its log is directly
// comparable to the wake-set engine's. It also reports how many cycles
// it leapt over: the wake-set engine dispatches exactly the cycles in
// which some component works, so its IdleSkipped must be the same.
func runReference(t *testing.T, toys []*stimToy, maxCycle Cycle) (final Cycle, skipped int64) {
	t.Helper()
	now := Cycle(0)
	var q []refCompletion
	for _, toy := range toys {
		toy.refQ = &q
	}
	done := func() bool {
		for _, toy := range toys {
			if !toy.Done() {
				return false
			}
		}
		return true
	}
	for !done() {
		if now >= maxCycle {
			t.Fatal("reference run hit the cycle limit")
		}
		next := WakeNever
		for _, toy := range toys {
			if h := toy.NextWake(now); h < next {
				next = h
			}
		}
		for _, c := range q {
			if c.at < next {
				next = c.at
			}
		}
		if next == WakeNever {
			t.Fatal("reference run stuck: pending work but no wake")
		}
		if next <= now {
			next = now + 1
		}
		skipped += int64(next - now - 1)
		now = next
		var due []refCompletion
		kept := q[:0]
		for _, c := range q {
			if c.at == now {
				due = append(due, c)
			} else {
				kept = append(kept, c)
			}
		}
		q = kept
		for _, c := range due {
			c.fire()
		}
		for _, toy := range toys {
			toy.Tick(now)
		}
	}
	return now, skipped
}

// TestWakeSetMatchesScanAllReference is the wake-set scheduler's
// property gate: across many random interleavings of self-scheduled
// work, cross-component WakeAt stimulation (same-cycle forward and
// backward, and future-cycle, inside the ring and in the far set),
// NextWake polling and ticking, the wake-set engine must produce
// exactly the scan-all reference's work sequence — same cycles, same
// intra-cycle order, same final cycle — while ticking no component
// that has no work and skipping exactly the cycles the reference skips.
func TestWakeSetMatchesScanAllReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkWakeSet(t, seed) })
	}
}

// checkWakeSet runs one seeded scenario through the scan-all reference
// and the wake-set engine and compares them (the property body shared
// with FuzzWakeWheel).
func checkWakeSet(t *testing.T, seed uint64) {
	const limit = 1_000_000

	var refLog []workRec
	refToys := buildToys(seed, &refLog)
	refCycles, refSkipped := runReference(t, refToys, limit)

	var wsLog []workRec
	wsToys := buildToys(seed, &wsLog)
	e := NewEngine(limit)
	for _, toy := range wsToys {
		toy.check = func() { checkWheel(t, e) }
		e.Register(toy)
	}
	if !e.EventDriven() {
		t.Fatal("toys should enable wake-set mode")
	}
	wsCycles, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkWheel(t, e)

	if wsCycles != refCycles {
		t.Fatalf("final cycles differ: wake-set %d, reference %d", wsCycles, refCycles)
	}
	if refLog[0].at > 1 {
		refSkipped-- // the engine's start-up dispatch simulates cycle 1 regardless
	}
	if e.IdleSkipped != refSkipped {
		t.Fatalf("skipped cycles differ: wake-set %d, reference %d", e.IdleSkipped, refSkipped)
	}
	compareWork(t, wsLog, refLog)
	assertNoIdleTicks(t, wsToys)
}

// assertNoIdleTicks fails if the engine ticked any toy that had no work.
func assertNoIdleTicks(t *testing.T, toys []*stimToy) {
	t.Helper()
	for _, toy := range toys {
		if toy.idleTicks != 0 {
			t.Fatalf("toy %d was ticked %d time(s) with no work", toy.id, toy.idleTicks)
		}
	}
}

// compareWork asserts two work logs are the same sequence.
func compareWork(t *testing.T, got, want []workRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("work counts differ: engine %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("work[%d]: engine %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestWakeAtBeforeOwnTurnSameCycle pins the mid-dispatch semantics
// directly: a component stimulated at the current cycle by an
// earlier-registered component must act this same cycle (its turn is
// still ahead), while a stimulation flowing backward — to a component
// whose turn already passed — must land exactly one cycle later.
func TestWakeAtBeforeOwnTurnSameCycle(t *testing.T) {
	var log []workRec
	back := &stimToy{id: 0, log: &log}    // registered before the source
	forward := &stimToy{id: 2, log: &log} // registered after the source
	src := &scriptTicker{at: 5, run: func(now Cycle) {
		back.AddStim(now)    // backward: turn passed -> acts at 6
		forward.AddStim(now) // forward: turn ahead -> acts at 5
	}}
	e := NewEngine(100)
	e.Register(back)
	e.Register(src)
	e.Register(forward)
	cycles, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []workRec{{id: 2, at: 5}, {id: 0, at: 6}}
	if len(log) != len(want) {
		t.Fatalf("log %+v, want %+v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %+v, want %+v", log, want)
		}
	}
	if cycles != 6 {
		t.Fatalf("cycles = %d, want 6", cycles)
	}
}

// scriptTicker runs a callback at one scripted cycle.
type scriptTicker struct {
	at   Cycle
	run  func(now Cycle)
	done bool
}

func (s *scriptTicker) Tick(now Cycle) {
	if !s.done && now == s.at {
		s.done = true
		s.run(now)
	}
}

func (s *scriptTicker) NextWake(now Cycle) Cycle {
	if s.done {
		return WakeNever
	}
	return s.at
}

func (s *scriptTicker) Done() bool { return s.done }
