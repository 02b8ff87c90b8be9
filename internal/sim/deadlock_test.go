package sim

import (
	"errors"
	"strings"
	"testing"
)

// wakeDropper models the classic lost-wakeup bug: it has real pending
// work (it is not Done) but, after its first tick, reports WakeNever
// and never self-schedules again — the wake that should have driven its
// next step was "dropped". The watchdog must catch this as a deadlock
// and name the component in the report.
type wakeDropper struct {
	ticks int
}

func (w *wakeDropper) Tick(now Cycle)           { w.ticks++ }
func (w *wakeDropper) Done() bool               { return w.ticks >= 10 }
func (w *wakeDropper) NextWake(now Cycle) Cycle { return WakeNever }
func (w *wakeDropper) ComponentLabel() string   { return "dropper-7" }
func (w *wakeDropper) Debug() string            { return "stuck after first tick; 9 ticks owed" }

// healthy is a quiescent, completed component registered alongside the
// dropper so the report has to distinguish stalled from done.
type healthy struct{}

func (healthy) Tick(now Cycle)           {}
func (healthy) Done() bool               { return true }
func (healthy) NextWake(now Cycle) Cycle { return WakeNever }
func (healthy) ComponentLabel() string   { return "healthy-0" }

// TestWatchdogNamesStalledComponent: a wake-dropping component must
// surface as a typed DeadlockError whose report names the stalled
// component (and only it) with its label, due cycle, and debug detail.
func TestWatchdogNamesStalledComponent(t *testing.T) {
	e := NewEngine(10_000)
	e.Register(healthy{})
	d := &wakeDropper{}
	e.Register(d)

	_, err := e.Run()
	if err == nil {
		t.Fatal("wake-dropping component must deadlock the run")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %T (%v), want *DeadlockError", err, err)
	}
	if !dl.Stalled {
		t.Fatalf("deadlock not flagged as stalled: %+v", dl)
	}
	if dl.Cycle >= 10_000 {
		t.Fatalf("deadlock reported at the cycle limit (%d), want the stall cycle", dl.Cycle)
	}
	if !strings.Contains(err.Error(), "dropper-7") {
		t.Fatalf("error does not name the stalled component: %v", err)
	}
	if strings.Contains(err.Error(), "healthy-0") {
		t.Fatalf("error names a healthy component as pending: %v", err)
	}
	var stalled *PendingComponent
	for i := range dl.Components {
		if dl.Components[i].Label == "dropper-7" {
			stalled = &dl.Components[i]
		}
	}
	if stalled == nil {
		t.Fatalf("snapshot missing the stalled component: %+v", dl.Components)
	}
	if stalled.Done {
		t.Fatal("stalled component reported as done")
	}
	if stalled.Due != WakeNever {
		t.Fatalf("stalled component due = %d, want WakeNever", stalled.Due)
	}
	if !strings.Contains(stalled.Detail, "9 ticks owed") {
		t.Fatalf("snapshot missing the component's Debug detail: %q", stalled.Detail)
	}
}

// TestDeadlockErrorAtLimit: per-cycle mode reports the same typed error
// at the cycle limit, with component labels resolved from NextWake
// hints where available.
func TestDeadlockErrorAtLimit(t *testing.T) {
	e := NewEngine(25)
	e.SetPerCycle(true)
	d := &wakeDropper{}
	d.ticks = -1 << 30 // never reaches Done even when ticked every cycle
	e.Register(d)
	_, err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %T, want *DeadlockError", err)
	}
	if dl.Stalled || dl.Cycle != 25 || dl.Limit != 25 {
		t.Fatalf("want cycle-limit exit at 25, got %+v", dl)
	}
	if !strings.Contains(err.Error(), "dropper-7") {
		t.Fatalf("error does not name the pending component: %v", err)
	}
}

// stuckHit models a front end whose L1 hit completion is filed past the
// cycle limit: the engine has work scheduled, but none before the limit.
type stuckHit struct {
	waker Waker
	fired bool
}

func (s *stuckHit) BindWaker(w Waker) { s.waker = w }
func (s *stuckHit) Tick(now Cycle) {
	if now == 1 {
		s.waker.DoneAt(1000, func() { s.fired = true })
	}
}
func (s *stuckHit) NextWake(now Cycle) Cycle { return WakeNever }
func (s *stuckHit) Done() bool               { return s.fired }
func (s *stuckHit) ComponentLabel() string   { return "stuck-hit" }
func (s *stuckHit) Debug() string            { return "waiting on its hit" }

// TestDeadlockReportListsPendingCompletions: a run that stops with a
// completion event outstanding reports it under the component that
// filed it, after the component's own Debug detail, in both engine modes.
func TestDeadlockReportListsPendingCompletions(t *testing.T) {
	for _, perCycle := range []bool{false, true} {
		e := NewEngine(100)
		e.SetPerCycle(perCycle)
		e.Register(healthy{})
		e.Register(&stuckHit{})
		_, err := e.Run()
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("perCycle=%v: err = %v, want *DeadlockError", perCycle, err)
		}
		if dl.Stalled || dl.Cycle != 100 {
			t.Fatalf("perCycle=%v: want a cycle-limit exit at 100, got %+v", perCycle, dl)
		}
		for _, c := range dl.Components {
			want := ""
			if c.Label == "stuck-hit" {
				want = "waiting on its hit completion due @1000"
			}
			if c.Detail != want {
				t.Fatalf("perCycle=%v: %s detail %q, want %q", perCycle, c.Label, c.Detail, want)
			}
		}
	}
}
