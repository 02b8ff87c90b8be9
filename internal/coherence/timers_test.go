package coherence

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// firing is one action Timers ran: the cycle it was scheduled for, its
// scheduling order, and the cycle it ran at.
type firing struct {
	at  sim.Cycle
	seq uint64
	ran sim.Cycle
}

// timerRig schedules actions that record their firing; each action's
// message carries its scheduling order in Addr, which indexes the cycle
// it was scheduled for in cycles.
type timerRig struct {
	tm     Timers
	seq    uint64
	cycles []sim.Cycle
	fired  []firing
	rec    func(now sim.Cycle, m *Msg)
}

func newTimerRig() *timerRig {
	r := &timerRig{}
	r.rec = func(now sim.Cycle, m *Msg) {
		r.fired = append(r.fired, firing{at: r.cycles[m.Addr], seq: m.Addr, ran: now})
	}
	return r
}

func (r *timerRig) at(c sim.Cycle) {
	r.cycles = append(r.cycles, c)
	r.tm.AtMsg(c, r.rec, &Msg{Addr: r.seq})
	r.seq++
}

func before(a, b firing) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// TestTimersFireOrder is the property test: for any scheduling
// sequence, actions run in exactly sorted (cycle, scheduling order)
// order, each on its own cycle, and NextDue reports the earliest one.
func TestTimersFireOrder(t *testing.T) {
	rng := sim.NewRNG(11)
	r := newTimerRig()
	var want []firing
	for i := 0; i < 5000; i++ {
		c := sim.Cycle(rng.Intn(64)) // dense cycles force same-cycle ties
		r.at(c)
		want = append(want, firing{at: c, seq: uint64(i), ran: c})
	}
	sort.Slice(want, func(i, j int) bool { return before(want[i], want[j]) })
	for c := sim.Cycle(0); c < 64; c++ {
		if next, ok := r.tm.NextDue(); ok && next < c {
			t.Fatalf("cycle %d: NextDue = %d, already past", c, next)
		}
		r.tm.Tick(c)
	}
	if len(r.fired) != len(want) {
		t.Fatalf("fired %d actions, want %d", len(r.fired), len(want))
	}
	for i, w := range want {
		if r.fired[i] != w {
			t.Fatalf("firing %d: %+v, want %+v", i, r.fired[i], w)
		}
	}
	if r.tm.Pending() != 0 {
		t.Fatalf("timers not drained: %d left", r.tm.Pending())
	}
}

// TestTimersInterleaved mixes scheduling and ticks (the directory's
// usage pattern, including actions scheduled in the past): every tick
// runs exactly the actions due by then, in (cycle, scheduling order)
// order, and leaves NextDue after the tick cycle.
func TestTimersInterleaved(t *testing.T) {
	rng := sim.NewRNG(23)
	r := newTimerRig()
	now := sim.Cycle(0)
	for round := 0; round < 2000; round++ {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			r.at(now - 5 + sim.Cycle(rng.Intn(1000)))
		}
		now += sim.Cycle(rng.Intn(20))
		from := len(r.fired)
		r.tm.Tick(now)
		ran := r.fired[from:]
		for i, f := range ran {
			if f.at > now || f.ran != now {
				t.Fatalf("round %d: action for cycle %d ran at %d on tick %d", round, f.at, f.ran, now)
			}
			if i > 0 && !before(ran[i-1], f) {
				t.Fatalf("round %d: %+v ran after %+v", round, f, ran[i-1])
			}
		}
		if next, ok := r.tm.NextDue(); ok && next <= now {
			t.Fatalf("round %d: NextDue %d not after tick %d", round, next, now)
		}
		if got, want := r.tm.Pending()+len(r.fired), int(r.seq); got != want {
			t.Fatalf("round %d: pending + fired = %d, scheduled %d", round, got, want)
		}
	}
	if len(r.fired) == 0 {
		t.Fatal("no firings exercised")
	}
}

// FuzzTimers feeds arbitrary byte strings as scripts — 0 advances the
// clock one cycle and ticks, any other byte b schedules an action b
// cycles ahead — and checks every action runs on its own cycle, the
// whole stream in (cycle, scheduling order) order, Pending stays
// consistent and NextDue is the earliest outstanding cycle.
func FuzzTimers(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 0, 0})
	f.Add([]byte{255, 0, 255, 0})
	f.Add([]byte{7, 7, 7, 7, 7})
	f.Add([]byte{2, 2, 1, 2, 0, 0, 0}) // same-cycle ties that fire
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newTimerRig()
		now := sim.Cycle(0)
		outstanding := map[sim.Cycle]int{}
		for _, b := range script {
			if b == 0 {
				now++
				r.tm.Tick(now)
				delete(outstanding, now)
			} else {
				r.at(now + sim.Cycle(b))
				outstanding[now+sim.Cycle(b)]++
			}
			if got, want := r.tm.Pending()+len(r.fired), int(r.seq); got != want {
				t.Fatalf("pending + fired = %d, scheduled %d", got, want)
			}
			lo, any := sim.WakeNever, false
			for c := range outstanding {
				if c < lo {
					lo, any = c, true
				}
			}
			if next, ok := r.tm.NextDue(); ok != any || (ok && next != lo) {
				t.Fatalf("NextDue = %d,%v, want %d,%v", next, ok, lo, any)
			}
		}
		for i, f := range r.fired {
			if f.ran != f.at {
				t.Fatalf("action for cycle %d ran at %d", f.at, f.ran)
			}
			if i > 0 && !before(r.fired[i-1], f) {
				t.Fatalf("stream out of order: %+v after %+v", f, r.fired[i-1])
			}
		}
	})
}
