package sim

import (
	"fmt"
	"strings"
	"testing"
)

// filer files one completion: at cycle `at` it schedules cb for `due`
// through its Waker. It is done once the completion has fired, so the
// engine cannot finish with it pending.
type filer struct {
	at, due Cycle
	cb      func()
	waker   Waker
	fired   bool
	ticks   []Cycle
}

func (f *filer) BindWaker(w Waker) { f.waker = w }
func (f *filer) Tick(now Cycle) {
	f.ticks = append(f.ticks, now)
	if now == f.at {
		f.waker.DoneAt(f.due, func() { f.fired = true; f.cb() })
	}
}
func (f *filer) NextWake(now Cycle) Cycle {
	if now < f.at {
		return f.at
	}
	return WakeNever
}
func (f *filer) Done() bool { return f.fired }

// TestCompletionFoldsIntoSameCycle: a completion fires at the start of
// its cycle, before any component ticks, and a wake it issues folds into
// that same cycle — for a component registered after the filer and, since
// no turn has passed yet, for one registered before it too. The filer is
// not ticked for it. Per-cycle execution produces the same work log.
func TestCompletionFoldsIntoSameCycle(t *testing.T) {
	for _, perCycle := range []bool{false, true} {
		t.Run(fmt.Sprintf("perCycle=%v", perCycle), func(t *testing.T) {
			var log []workRec
			early := &stimToy{id: 0, log: &log}
			late := &stimToy{id: 2, log: &log}
			f := &filer{at: 5, due: 8, cb: func() {
				log = append(log, workRec{id: -1, at: 8})
				early.AddStim(8)
				late.AddStim(8)
			}}
			e := NewEngine(100)
			e.SetPerCycle(perCycle)
			e.Register(early)
			e.Register(f)
			e.Register(late)
			cycles, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			compareWork(t, log, []workRec{{-1, 8}, {0, 8}, {2, 8}})
			if cycles != 8 {
				t.Fatalf("cycles = %d, want 8", cycles)
			}
			if !perCycle && fmt.Sprint(f.ticks) != "[1 5]" {
				t.Fatalf("filer ticked at %v, want [1 5]: the completion needs no tick of its own", f.ticks)
			}
		})
	}
}

// TestCompletionsKeepFilingOrder: completions for one cycle fire in the
// order they were filed, whether they were filed straight into the ring
// or passed through the far set first (including two that both did), a
// due cycle at or before now is the next cycle, and CompleteAt hands
// its payload over. Both engine modes agree.
func TestCompletionsKeepFilingOrder(t *testing.T) {
	for _, perCycle := range []bool{false, true} {
		t.Run(fmt.Sprintf("perCycle=%v", perCycle), func(t *testing.T) {
			var got []string
			var e *Engine
			rec := func(name string) func(uint64) {
				return func(v uint64) { got = append(got, fmt.Sprintf("%s@%d:%d", name, e.Now(), v)) }
			}
			script := map[Cycle][]func(w Waker, now Cycle){
				1: {
					func(w Waker, now Cycle) { w.CompleteAt(101, rec("a"), 1) },   // far
					func(w Waker, now Cycle) { w.CompleteAt(300, rec("c"), 3) },   // far
					func(w Waker, now Cycle) { w.CompleteAt(now, rec("now"), 9) }, // next cycle
				},
				40:  {func(w Waker, now Cycle) { w.CompleteAt(101, rec("b"), 2) }}, // ring, after a
				250: {func(w Waker, now Cycle) { w.CompleteAt(300, rec("d"), 4) }}, // ring, after c
			}
			last := &scriptTicker{at: 300, run: func(Cycle) {}}
			e = NewEngine(1000)
			e.SetPerCycle(perCycle)
			e.Register(&scriptedFiler{script: script})
			e.Register(last)
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			want := "[now@2:9 a@101:1 b@101:2 c@300:3 d@300:4]"
			if fmt.Sprint(got) != want {
				t.Fatalf("fired %v, want %s", got, want)
			}
		})
	}
}

// scriptedFiler runs its script's filings at their cycles.
type scriptedFiler struct {
	script map[Cycle][]func(w Waker, now Cycle)
	waker  Waker
}

func (s *scriptedFiler) BindWaker(w Waker) { s.waker = w }
func (s *scriptedFiler) Tick(now Cycle) {
	for _, f := range s.script[now] {
		f(s.waker, now)
	}
}
func (s *scriptedFiler) NextWake(now Cycle) Cycle {
	next := WakeNever
	for c := range s.script {
		if c > now && c < next {
			next = c
		}
	}
	return next
}

// TestCompletionUnboundWakerPanics: nothing would fire a completion filed
// through the zero Waker, so filing one is a loud error, not a lost hit.
func TestCompletionUnboundWakerPanics(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "unbound Waker") {
			t.Fatalf("recovered %q", r)
		}
	}()
	Waker{}.DoneAt(3, func() {})
}

// BenchmarkCompletionPath is an L1 hit's engine cost: one component
// files a payload completion three cycles out every cycle and the engine
// fires it. Expect 0 allocs/op.
func BenchmarkCompletionPath(b *testing.B) {
	var sink uint64
	h := &hitFiler{cb: func(v uint64) { sink += v }}
	e := NewEngine(0)
	e.Register(h)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunWindow(Cycle(b.N) + 1)
	_ = sink
}

// hitFiler files a completion for now+3 on every tick.
type hitFiler struct {
	cb    func(uint64)
	waker Waker
}

func (h *hitFiler) BindWaker(w Waker)        { h.waker = w }
func (h *hitFiler) Tick(now Cycle)           { h.waker.CompleteAt(now+3, h.cb, uint64(now)) }
func (h *hitFiler) NextWake(now Cycle) Cycle { return now + 1 }
