package sim

import (
	"errors"
	"testing"
)

// timedTicker does work at a fixed set of cycles and records every cycle
// at which it was ticked while having work.
type timedTicker struct {
	due  map[Cycle]bool
	last Cycle // largest due cycle
	work []Cycle
}

func newTimedTicker(due ...Cycle) *timedTicker {
	t := &timedTicker{due: map[Cycle]bool{}}
	for _, c := range due {
		t.due[c] = true
		if c > t.last {
			t.last = c
		}
	}
	return t
}

func (t *timedTicker) Tick(now Cycle) {
	if t.due[now] {
		t.work = append(t.work, now)
		delete(t.due, now)
	}
}

func (t *timedTicker) NextWake(now Cycle) Cycle {
	earliest := WakeNever
	for c := range t.due {
		if c > now && c < earliest {
			earliest = c
		}
	}
	return earliest
}

func (t *timedTicker) Done() bool { return len(t.due) == 0 }

// TestEventDrivenMatchesPerCycle: same components, both modes, identical
// work cycles and final cycle count — with most cycles skipped.
func TestEventDrivenMatchesPerCycle(t *testing.T) {
	mk := func() []*timedTicker {
		return []*timedTicker{
			newTimedTicker(3, 90, 91, 4000),
			newTimedTicker(1, 250, 4000, 7777),
			newTimedTicker(500),
		}
	}
	run := func(perCycle bool) ([]*timedTicker, Cycle, int64) {
		ts := mk()
		e := NewEngine(100_000)
		e.SetPerCycle(perCycle)
		for _, tk := range ts {
			e.Register(tk)
		}
		cycles, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return ts, cycles, e.IdleSkipped
	}
	pcTicks, pcCycles, _ := run(true)
	evTicks, evCycles, skipped := run(false)
	if pcCycles != evCycles {
		t.Fatalf("cycle counts differ: per-cycle %d, event %d", pcCycles, evCycles)
	}
	for i := range pcTicks {
		if len(pcTicks[i].work) != len(evTicks[i].work) {
			t.Fatalf("ticker %d work counts differ", i)
		}
		for j := range pcTicks[i].work {
			if pcTicks[i].work[j] != evTicks[i].work[j] {
				t.Fatalf("ticker %d work[%d]: per-cycle %d, event %d",
					i, j, pcTicks[i].work[j], evTicks[i].work[j])
			}
		}
	}
	if skipped == 0 {
		t.Fatal("event mode skipped nothing on a sparse schedule")
	}
	if skipped < 7000 {
		t.Fatalf("expected most of the 7777 cycles skipped, got %d", skipped)
	}
}

// TestEventDrivenCycleLimit: a deadlocked (never-waking) system errors
// out in both modes, and the error stays ErrCycleLimit-compatible.
// Per-cycle mode cannot detect the stall early and grinds to the cycle
// limit; wake-set mode sees the empty wake set and reports the deadlock
// at the cycle progress actually stopped.
func TestEventDrivenCycleLimit(t *testing.T) {
	for _, pc := range []bool{true, false} {
		e := NewEngine(50)
		e.SetPerCycle(pc)
		e.Register(newTimedTicker()) // no work, but Done() == true... use a stuck doner instead
		e.RegisterDoner(doneNever{})
		_, err := e.Run()
		if !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("perCycle=%v: err = %v, want ErrCycleLimit compatibility", pc, err)
		}
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("perCycle=%v: err = %T, want *DeadlockError", pc, err)
		}
		if pc {
			if e.Now() != 50 || dl.Stalled {
				t.Fatalf("per-cycle: stopped at %d (stalled=%v), want cycle-limit exit at 50", e.Now(), dl.Stalled)
			}
		} else {
			if !dl.Stalled {
				t.Fatalf("wake-set: want a stalled deadlock report, got %v", err)
			}
			if e.Now() >= 50 {
				t.Fatalf("wake-set: deadlock should be reported before the limit, stopped at %d", e.Now())
			}
		}
	}
}

type doneNever struct{}

func (doneNever) Done() bool { return false }
