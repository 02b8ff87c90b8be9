// Package sim provides the deterministic simulation kernel used by the
// TSO-CC reproduction. All simulated components implement Ticker and are
// advanced in a fixed registration order, which makes every simulation
// run bit-for-bit reproducible for a given seed and configuration.
//
// The engine runs in one of two time-advancement modes that produce
// identical results:
//
//   - Per-cycle: every ticker is ticked once per cycle, in registration
//     order. Simple and the conformance baseline.
//   - Wake-set (default): the engine tracks a per-component due cycle
//     and, on every simulated cycle, ticks only the components that are
//     due — in registration order, so intra-cycle ordering is identical
//     to per-cycle execution. Cycles where no component is due are
//     leapt over entirely. A component becomes due through its own
//     NextWake hint (refreshed after each of its ticks) or through an
//     explicit cross-component wake (Engine.WakeAt / a Waker handle)
//     issued when external work — a mesh delivery, a completion
//     callback, a freshly scheduled timer — lands on it.
//
// Because a correct NextWake never overshoots the component's next
// self-driven action, and every external stimulation marks its receiver
// due, the sequence of effective (non-no-op) ticks — and therefore all
// simulated state — is bit-identical to per-cycle execution.
//
// Besides components, the engine schedules completion events: a
// callback with an optional payload that a component files for a later
// cycle (Waker.CompleteAt / Waker.DoneAt) instead of waking itself to
// run it. Every mode fires a cycle's completions at the start of that
// cycle, in filing order, before any component ticks; under wake-set
// scheduling a wake they issue folds into the same cycle. They carry
// work whose only effect is on components registered after the filer:
// an L1 hit's callback into its front end, and a mesh delivery into the
// inbox of a controller registered after the network. Running it before
// the filer's own turn instead of inside it, and the two kinds
// interleaved in filing order, changes no simulated state.
//
// A callback into a later component — a completion event, or one an L1
// fires from its own tick — may also finish work of its receiver on the
// cycle it fires. A TSO front end's load, RMW or fence callback does:
// it reads the cycle through Waker.Now, retires the register-only
// instructions the completion unblocks (state nothing outside the
// receiver can observe), and wakes the receiver with Waker.WakeAt at the
// cycle those instructions stall it until, not on the callback cycle.
// The receiver is then ticked once per memory operation, not once more
// per run of register code.
//
// Due cycles are indexed by a due wheel (see Engine): a ring of
// per-cycle component bitmasks kept exact on every change, so an active
// cycle costs host time in proportion to the components due in it, not
// to the number registered. The wheel is an internal index only — the
// contract for component authors (hint after every tick, WakeAt for
// outside stimulation, the same-cycle fold rules on Waker.WakeAt) is
// the one the scan-based scheduler had.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle int64

// WakeNever is the NextWake sentinel for "no self-scheduled work": the
// component has nothing to do until some other component's activity
// (a message delivery, a callback) re-enables it via a wake.
const WakeNever Cycle = 1<<63 - 1

// Ticker is a component the engine advances: Tick at every cycle it is
// due, and after each tick NextWake for when it is next due on its own.
// Components must not assume any particular ordering relative to other
// tickers beyond the engine's fixed registration order.
type Ticker interface {
	// Tick advances the component to the given cycle.
	Tick(now Cycle)
	WakeHinter
}

// WakeHinter is the self-scheduling half of the wake-set contract.
// NextWake reports the earliest cycle strictly after now at which the
// component may perform work on its own (a due timer, a pending retry,
// an instruction to execute), or WakeNever if it is quiescent until
// externally stimulated.
//
// The hint must never be later than the component's true next action:
// returning now+1 is always safe (it degenerates to per-cycle ticking),
// returning too large a value skips real work and breaks determinism.
// The engine re-polls NextWake only after ticking the component, so the
// hint must cover every pending obligation visible in the component's
// own state (its timer heap, its inbox, its pending deliveries) — a
// wake delivered earlier via WakeAt does not survive the next tick.
type WakeHinter interface {
	NextWake(now Cycle) Cycle
}

// Waker is a component's handle for marking a registered component due.
// It is handed out at registration (see WakeSink) and is what lets
// external events — a mesh delivery into an inbox, a completion
// callback into a core, a timer scheduled from another component's tick
// — reach a component without the engine rescanning every hint. It is
// also how the component files completion events. The zero Waker is
// valid and wakes nothing (standalone component tests); filing a
// completion through it panics, since nothing would ever fire it.
type Waker struct {
	e  *Engine
	id int
}

// WakeAt marks the component due at cycle c. A wake at or before the
// cycle currently being dispatched means "as soon as possible": the
// component is ticked later this same cycle if its turn (registration
// order) has not passed yet, and next cycle otherwise — exactly when
// per-cycle execution would first act on the stimulation.
func (w Waker) WakeAt(c Cycle) {
	if w.e != nil {
		w.e.WakeAt(w.id, c)
	}
}

// Wake marks the component due now (the engine's current cycle): the
// receiver of an intra-cycle stimulation calls this from the entry
// point that accepted the work (Deliver, a completion callback).
func (w Waker) Wake() {
	if w.e != nil {
		w.e.WakeAt(w.id, w.e.now)
	}
}

// Now reports the engine's current cycle: inside a completion event or
// a component's tick, the cycle being dispatched. ok is false for the
// zero Waker, which has no engine clock to read (a hand-driven
// component must take the cycle from its next Tick instead).
func (w Waker) Now() (now Cycle, ok bool) {
	if w.e == nil {
		return 0, false
	}
	return w.e.now, true
}

// CompleteAt files cb(v) to fire at the start of cycle c (the next cycle
// if c is not after the current one), before any component ticks in c.
// It allocates nothing in steady state: cb is an existing callback value
// and v rides in the event.
func (w Waker) CompleteAt(c Cycle, cb func(uint64), v uint64) {
	w.engine().complete(completion{at: c, owner: w.id, valCb: cb, val: v})
}

// DoneAt is CompleteAt for a callback without a payload.
func (w Waker) DoneAt(c Cycle, cb func()) {
	w.engine().complete(completion{at: c, owner: w.id, done: cb})
}

func (w Waker) engine() *Engine {
	if w.e == nil {
		panic("sim: completion filed through an unbound Waker")
	}
	return w.e
}

// completion is a filed completion event (see Waker.CompleteAt). owner is
// the filing component's registration index, for forensic snapshots.
type completion struct {
	at    Cycle
	owner int
	val   uint64
	valCb func(uint64)
	done  func()
}

func (ev *completion) fire() {
	if ev.done != nil {
		ev.done()
	} else {
		ev.valCb(ev.val)
	}
}

// WakeSink is implemented by components that need a Waker — any
// component that can be stimulated from outside its own Tick. The
// engine binds the handle during Register.
type WakeSink interface {
	BindWaker(w Waker)
}

// Doner is implemented by components that can report completion.
// The engine stops when every registered Doner reports done.
type Doner interface {
	Done() bool
}

// Engine drives a set of tickers in deterministic order.
type Engine struct {
	now      Cycle
	tickers  []Ticker
	perCycle bool
	doners   []Doner
	donerFor []int // parallel to doners: ticker index, -1 for RegisterDoner
	maxCycle Cycle

	// Wake-set scheduling state. dueAt[i] is the earliest cycle
	// component i must be ticked at (WakeNever = quiescent) and is the
	// authoritative value (Snapshot reads it). The due wheel indexes it
	// so neither dispatch nor nextDue ever scans the components:
	//
	//   - wheel is a ring of wheelSlots per-cycle bitmasks over
	//     registration order, words uint64s each; a component due at c
	//     with now <= c < now+wheelSlots has its bit in slot
	//     c&(wheelSlots-1). The slot of the cycle being dispatched is the
	//     dispatch mask itself (mask aliases it for the length of the
	//     pass): same-cycle wakes set bits in it, dispatch consumes them.
	//   - occ has bit s set iff slot s holds any bit, so the earliest
	//     occupied slot after now is one rotate + TrailingZeros64.
	//   - far holds the components due at or beyond now+wheelSlots at the
	//     time they were filed (long timers); farMin is the exact minimum
	//     of their due cycles (WakeNever when far is empty). advance moves
	//     far entries into the ring as the window reaches them.
	//   - completions ride the same ring: evs[s] lists, in filing order,
	//     the completion events due at the cycle slot s stands for, and
	//     farEvs those filed at or beyond now+wheelSlots. occ and farMin
	//     cover them too.
	//
	// Every component with a finite dueAt has exactly one entry for it —
	// in the ring or in far — and quiescent components have none: an
	// entry is removed when its due cycle is lowered (setDue) or when the
	// component is ticked, whether at that cycle or earlier through a
	// same-cycle fold (which adds a second, dispatch-mask bit until the
	// component's turn). So every dispatch ticks a component or fires a
	// completion, and nextDue is exact, not a bound.
	dueAt  []Cycle
	words  int
	wheel  []uint64
	mask   []uint64 // wheel slot of now, valid during a dispatch
	occ    uint64
	far    []uint64
	farMin Cycle
	evs    [wheelSlots][]completion
	farEvs []completion
	// pos is the highest registration index whose turn has come this
	// cycle (-1 while the cycle's completions fire); outside a dispatch it
	// is len(tickers), so "id > pos" alone means "mid-dispatch and id's
	// turn is still ahead".
	pos int

	// IdleSkipped counts cycles the wake-set mode never simulated
	// (throughput diagnostics; not part of any Result).
	IdleSkipped int64

	// Observability hooks (internal/obs). All nil/false by default;
	// they observe dispatch without influencing it, and the wake-set
	// loop pays one predictable branch per hook when disabled.
	// dispatchHist records how many components each wake-set dispatch
	// ticked; tl receives per-component tick spans; labelCtx holds
	// prebuilt pprof label contexts applied around each component tick.
	dispatchHist *obs.Hist
	tl           *obs.Timeline
	labelCtx     []context.Context
	baseCtx      context.Context
}

// ErrCycleLimit is returned by Run when the cycle limit is reached
// before all Doners report completion (usually a deadlock or livelock
// in the simulated system).
var ErrCycleLimit = errors.New("sim: cycle limit reached before completion")

// Labeled is an optional component interface: a human-readable name
// used in forensic reports. Components without one are labeled by type.
type Labeled interface {
	ComponentLabel() string
}

// Debugger is an optional component interface: a one-line dump of the
// component's pending state (in-flight transactions, queued timers),
// included in forensic reports.
type Debugger interface {
	Debug() string
}

// PendingComponent is one registered component's state at the moment a
// run failed to complete, captured for forensic reports.
type PendingComponent struct {
	Index  int    // registration index
	Label  string // ComponentLabel() or the component's type
	Due    Cycle  // next cycle the component would act (WakeNever = quiescent)
	Done   bool   // false if the component is a Doner still pending
	Detail string // Debug() output, if implemented
}

// DeadlockError is returned by Run when the simulation cannot complete:
// either no component will ever act again while Doners are still
// pending (Stalled), or the cycle limit was hit first. It unwraps to
// ErrCycleLimit in both cases so existing errors.Is checks keep
// working; use errors.As to reach the forensic detail.
type DeadlockError struct {
	Cycle      Cycle // cycle at which progress stopped
	Limit      Cycle // the engine's cycle limit
	Stalled    bool  // true: WakeNever with pending Doners (a true deadlock)
	Components []PendingComponent
}

// Error summarizes the failure and names the components that are not
// done; the full per-component dump is in Components.
func (e *DeadlockError) Error() string {
	var pending []string
	for _, c := range e.Components {
		if !c.Done {
			pending = append(pending, c.Label)
		}
	}
	if e.Stalled {
		return fmt.Sprintf("sim: deadlock at cycle %d: no component has scheduled work but %d completion check(s) are pending (%s)",
			e.Cycle, len(pending), strings.Join(pending, ", "))
	}
	return fmt.Sprintf("%v (limit %d, %d pending: %s)",
		ErrCycleLimit, e.Limit, len(pending), strings.Join(pending, ", "))
}

// Unwrap lets errors.Is(err, ErrCycleLimit) match both flavors.
func (e *DeadlockError) Unwrap() error { return ErrCycleLimit }

// NewEngine returns an engine that refuses to run past maxCycle.
// A maxCycle of 0 selects a generous default.
func NewEngine(maxCycle Cycle) *Engine {
	if maxCycle <= 0 {
		maxCycle = 500_000_000
	}
	return &Engine{maxCycle: maxCycle, farMin: WakeNever}
}

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// SetPerCycle forces per-cycle ticking instead of wake-set scheduling
// (the conformance baseline for A/B determinism testing).
func (e *Engine) SetPerCycle(on bool) { e.perCycle = on }

// EventDriven reports whether the engine will use wake-set scheduling.
func (e *Engine) EventDriven() bool { return !e.perCycle }

// Register adds a ticker. If the ticker also implements Doner it
// participates in the completion check. Registration order defines
// execution order within a cycle. Tickers implementing WakeSink receive
// their Waker here.
func (e *Engine) Register(t Ticker) {
	id := len(e.tickers)
	e.tickers = append(e.tickers, t)
	e.pos = len(e.tickers)
	e.dueAt = append(e.dueAt, WakeNever)
	if id>>6 >= e.words {
		e.growWheel()
	}
	e.setDue(id, e.now+1)
	if d, ok := t.(Doner); ok {
		e.doners = append(e.doners, d)
		e.donerFor = append(e.donerFor, id)
	}
	if ws, ok := t.(WakeSink); ok {
		ws.BindWaker(Waker{e: e, id: id})
	}
}

// componentLabel names a registered component for observability
// (timeline thread names, pprof labels).
func (e *Engine) componentLabel(i int) string {
	if lb, ok := e.tickers[i].(Labeled); ok {
		return lb.ComponentLabel()
	}
	return fmt.Sprintf("component %d", i)
}

// SetDispatchHist installs a histogram observing the number of
// components ticked per wake-set dispatch (the wake-set occupancy
// series). Call after registration, before Run.
func (e *Engine) SetDispatchHist(h *obs.Hist) { e.dispatchHist = h }

// SetTimeline installs a timeline sink for per-component tick spans: one
// "components" process (pid 0), thread = registration index. Process and
// thread-name metadata for every registered component is emitted
// immediately, so call after registration. Tick spans are produced by
// wake-set dispatch only — the per-cycle conformance mode ticks every
// component every cycle, which is exactly the information-free case.
func (e *Engine) SetTimeline(tl *obs.Timeline) {
	e.tl = tl
	tl.ProcessName(0, "components")
	for i := range e.tickers {
		tl.ThreadName(0, i, e.componentLabel(i))
	}
}

// EnableProfileLabels precomputes a pprof label context per component
// and applies it around each tick, so -cpuprofile samples attribute
// host time to simulated components. Call after registration. The
// labels only describe the host profile — they never touch simulated
// state — but label switching has host-time cost, so it is opt-in
// (config.Obs.ProfileLabels).
func (e *Engine) EnableProfileLabels() {
	e.baseCtx = context.Background()
	e.labelCtx = make([]context.Context, len(e.tickers))
	for i := range e.tickers {
		e.labelCtx[i] = pprof.WithLabels(e.baseCtx, pprof.Labels("component", e.componentLabel(i)))
	}
}

// RegisterDoner adds a completion check that is not a ticker.
func (e *Engine) RegisterDoner(d Doner) {
	e.doners = append(e.doners, d)
	e.donerFor = append(e.donerFor, -1)
}

// Snapshot captures every registered component's pending state for a
// forensic report: label, next due cycle, completion status, and the
// component's own Debug dump when it offers one. Non-ticker Doners
// (external completion checks) that are still pending are appended with
// Index -1.
func (e *Engine) Snapshot() []PendingComponent {
	done := make(map[int]bool, len(e.doners))
	for di, d := range e.doners {
		if i := e.donerFor[di]; i >= 0 {
			done[i] = d.Done()
		}
	}
	pending := e.pendingCompletions()
	out := make([]PendingComponent, 0, len(e.tickers))
	for i, t := range e.tickers {
		pc := PendingComponent{Index: i, Due: e.dueAt[i], Done: true}
		if !e.EventDriven() {
			// dueAt is not maintained in per-cycle mode: ask the component.
			pc.Due = t.NextWake(e.now)
		}
		if lb, ok := t.(Labeled); ok {
			pc.Label = lb.ComponentLabel()
		} else {
			pc.Label = fmt.Sprintf("%T", t)
		}
		if d, ok := done[i]; ok {
			pc.Done = d
		}
		if dbg, ok := t.(Debugger); ok {
			pc.Detail = dbg.Debug()
		}
		for _, c := range pending[i] {
			if pc.Detail != "" {
				pc.Detail += " "
			}
			pc.Detail += fmt.Sprintf("completion due @%d", c)
		}
		out = append(out, pc)
	}
	for di, d := range e.doners {
		if e.donerFor[di] >= 0 || d.Done() {
			continue
		}
		pc := PendingComponent{Index: -1, Due: WakeNever}
		if lb, ok := d.(Labeled); ok {
			pc.Label = lb.ComponentLabel()
		} else {
			pc.Label = fmt.Sprintf("%T", d)
		}
		if dbg, ok := d.(Debugger); ok {
			pc.Detail = dbg.Debug()
		}
		out = append(out, pc)
	}
	return out
}

// pendingCompletions maps each filing component to the due cycles of its
// outstanding completion events, in firing order.
func (e *Engine) pendingCompletions() map[int][]Cycle {
	all := append([]completion(nil), e.farEvs...)
	for s := range e.evs {
		all = append(all, e.evs[s]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make(map[int][]Cycle)
	for _, ev := range all {
		out[ev.owner] = append(out[ev.owner], ev.at)
	}
	return out
}

// deadlockError builds the typed failure for the current engine state.
func (e *Engine) deadlockError(stalled bool) *DeadlockError {
	return &DeadlockError{
		Cycle:      e.now,
		Limit:      e.maxCycle,
		Stalled:    stalled,
		Components: e.Snapshot(),
	}
}

// wheelSlots is the due wheel's ring size in cycles: the width of the
// occupancy word, which nextDue rotates as a 64-slot ring. Measured on
// the repo benchmark, 99.7% (miss64) to 99.98% (sync8) of the due
// cycles filed lie fewer than 64 cycles ahead — 99.6% within 16 — so
// the far set holds a handful of memory-latency timers and its scans
// (fewer than one per far entry, 14 entries long on average on miss64)
// do not show in a profile; a larger ring would buy nothing, and at 64
// slots of 4-word masks (193 components) it is 2 KB.
const wheelSlots = 64

// growWheel widens every slot mask by one word (64 more components).
// Registration-time only.
func (e *Engine) growWheel() {
	nw := e.words + 1
	wheel := make([]uint64, wheelSlots*nw)
	for s := 0; s < wheelSlots; s++ {
		copy(wheel[s*nw:], e.wheel[s*e.words:(s+1)*e.words])
	}
	e.wheel, e.words = wheel, nw
	e.far = append(e.far, 0)
}

// setDue lowers component id's due cycle to c, moving its wheel entry.
// A c at or before now means the next cycle; a c at or after the
// current due cycle is a no-op (due cycles only rise by being consumed
// in dispatch).
func (e *Engine) setDue(id int, c Cycle) {
	if c <= e.now {
		c = e.now + 1
	}
	old := e.dueAt[id]
	if c >= old {
		return
	}
	if old != WakeNever {
		e.unfile(id, old)
	}
	e.dueAt[id] = c
	e.file(id, c)
}

// unfile removes component id's entry for due cycle old from far or
// from the ring, keeping farMin and occ exact.
func (e *Engine) unfile(id int, old Cycle) {
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	if e.far[w]&bit != 0 {
		e.far[w] &^= bit
		if old == e.farMin {
			e.farMin = e.scanFar()
		}
		return
	}
	s := int(old) & (wheelSlots - 1)
	slot := e.wheel[s*e.words : (s+1)*e.words]
	slot[w] &^= bit
	var left uint64
	for _, word := range slot {
		left |= word
	}
	if left == 0 && len(e.evs[s]) == 0 {
		e.occ &^= 1 << uint(s)
	}
}

// file records component id's due cycle c in the ring, or in far when
// c lies at or beyond now+wheelSlots.
func (e *Engine) file(id int, c Cycle) {
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	if c-e.now >= wheelSlots {
		e.far[w] |= bit
		if c < e.farMin {
			e.farMin = c
		}
		return
	}
	s := int(c) & (wheelSlots - 1)
	e.wheel[s*e.words+w] |= bit
	e.occ |= 1 << uint(s)
}

// complete files a completion event, clamping a due cycle at or before
// now to the next cycle.
func (e *Engine) complete(ev completion) {
	if ev.at <= e.now {
		ev.at = e.now + 1
	}
	e.fileEvent(ev)
}

// fileEvent appends ev to its ring slot, or to farEvs when it lies at or
// beyond now+wheelSlots.
func (e *Engine) fileEvent(ev completion) {
	if ev.at-e.now >= wheelSlots {
		e.farEvs = append(e.farEvs, ev)
		if ev.at < e.farMin {
			e.farMin = ev.at
		}
		return
	}
	s := int(ev.at) & (wheelSlots - 1)
	e.evs[s] = append(e.evs[s], ev)
	e.occ |= 1 << uint(s)
}

// fire runs the completions of ring slot s in filing order and empties
// it. None of them can file into s again: a completion is clamped to at
// least now+1, and one for now+wheelSlots goes to farEvs.
func (e *Engine) fire(s int) {
	evs := e.evs[s]
	for i := range evs {
		evs[i].fire()
	}
	e.evs[s] = evs[:0]
}

// scanFar reports the minimum due cycle over the far set, components
// and completions alike.
func (e *Engine) scanFar() Cycle {
	m := WakeNever
	for w, word := range e.far {
		for ; word != 0; word &= word - 1 {
			if d := e.dueAt[w<<6+bits.TrailingZeros64(word)]; d < m {
				m = d
			}
		}
	}
	for i := range e.farEvs {
		if d := e.farEvs[i].at; d < m {
			m = d
		}
	}
	return m
}

// advance moves the clock to c (a cycle returned by nextDue, so nothing
// is due in between) and pulls every far entry the ring window
// [c, c+wheelSlots) now covers into its slot.
func (e *Engine) advance(c Cycle) {
	e.now = c
	if e.farMin-c >= wheelSlots {
		return
	}
	for w, word := range e.far {
		for ; word != 0; word &= word - 1 {
			id := w<<6 + bits.TrailingZeros64(word)
			if d := e.dueAt[id]; d-c < wheelSlots {
				e.far[w] &^= 1 << (uint(id) & 63)
				e.file(id, d)
			}
		}
	}
	// Completions move in filing order, and before any completion for the
	// same cycle can be filed straight into the ring (that needs a clock
	// within wheelSlots of it, which this call is the first to reach), so
	// every slot stays in filing order.
	kept := e.farEvs[:0]
	for _, ev := range e.farEvs {
		if ev.at-c < wheelSlots {
			e.fileEvent(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	e.farEvs = kept
	e.farMin = e.scanFar()
}

// resetDue makes every component due on the next cycle. Filed
// completions keep their place.
func (e *Engine) resetDue() {
	for i := range e.wheel {
		e.wheel[i] = 0
	}
	for i := range e.far {
		e.far[i] = 0
	}
	e.occ = 0
	for s := range e.evs {
		if len(e.evs[s]) > 0 {
			e.occ |= 1 << uint(s)
		}
	}
	e.farMin = e.scanFar()
	for i := range e.dueAt {
		e.dueAt[i] = e.now + 1
		e.file(i, e.now+1)
	}
}

// WakeAt marks component id due at cycle c (the Waker handle calls
// this). Wakes at or before the current cycle fold into the in-flight
// dispatch when the component's turn has not passed, and defer to
// now+1 when it has — the first cycle per-cycle execution could act.
func (e *Engine) WakeAt(id int, c Cycle) {
	if c <= e.now && id > e.pos {
		// The fold is one bit in the dispatch mask. An entry the
		// component holds for a later cycle stays where dueAt says until
		// its turn comes; dispatch removes it then.
		e.mask[id>>6] |= 1 << (uint(id) & 63)
		return
	}
	e.setDue(id, c)
}

// Step advances the simulation a single cycle, firing the cycle's
// completions and then ticking every component (per-cycle semantics).
func (e *Engine) Step() {
	e.advance(e.now + 1)
	// pos stays len(tickers): a wake issued by a completion goes to the
	// wheel, which per-cycle ticking does not consult.
	e.fire(int(e.now) & (wheelSlots - 1))
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
}

// nextDue reports the earliest cycle any component or completion is due
// at, or WakeNever: the first occupied ring slot after now, else the far
// minimum (every far entry lies beyond every ring entry).
func (e *Engine) nextDue() Cycle {
	if e.occ == 0 {
		return e.farMin
	}
	from := e.now + 1
	return from + Cycle(bits.TrailingZeros64(bits.RotateLeft64(e.occ, -int(from&(wheelSlots-1)))))
}

// dispatch fires the current cycle's completions, then ticks every due
// component in registration order. Components woken mid-dispatch for
// this same cycle (a mesh delivery into an inbox, a completion callback
// into a core) are picked up in the same pass as long as their turn has
// not passed — a completion's wake always folds, since it fires before
// any turn; bit identity with per-cycle execution holds because
// stimulation only flows forward in registration order within a cycle
// (network → L2s → L1s → frontends), which mirrors per-cycle tick order.
func (e *Engine) dispatch() {
	now := e.now
	slot := int(now) & (wheelSlots - 1)
	mask := e.wheel[slot*e.words : (slot+1)*e.words]
	e.mask = mask
	e.pos = -1
	if len(e.evs[slot]) > 0 {
		e.fire(slot)
	}
	ticked := 0
	for w := 0; w < len(mask); {
		wordBits := mask[w]
		if wordBits == 0 {
			// Word exhausted: everything below the next word has had its
			// turn; later same-cycle wakes for these indices defer to now+1.
			e.pos = (w+1)<<6 - 1
			w++
			continue
		}
		i := w<<6 + bits.TrailingZeros64(wordBits)
		mask[w] = wordBits & (wordBits - 1)
		e.pos = i
		// Consume the due entry before ticking: wakes issued during the
		// tick (timers the component schedules on itself, messages it
		// receives) file against a clean slate, and the post-tick hint
		// covers all remaining self-visible work. A component folded into
		// this cycle may still hold an entry for a later one; whatever it
		// was for is handled now or hinted again.
		if d := e.dueAt[i]; d != now && d != WakeNever {
			e.unfile(i, d)
		}
		e.dueAt[i] = WakeNever
		if e.labelCtx != nil {
			pprof.SetGoroutineLabels(e.labelCtx[i])
		}
		e.tickers[i].Tick(now)
		ticked++
		if e.tl != nil {
			e.tl.Tick(0, i, int64(now))
		}
		// A hint at or before now means "tick me next cycle".
		e.setDue(i, e.tickers[i].NextWake(now))
	}
	// Every bit of the slot was consumed above; nothing files into it
	// again before the ring wraps (now+wheelSlots goes to far).
	e.occ &^= 1 << uint(slot)
	e.pos = len(e.tickers)
	if e.labelCtx != nil {
		pprof.SetGoroutineLabels(e.baseCtx)
	}
	if e.dispatchHist != nil {
		e.dispatchHist.Observe(int64(ticked))
	}
}

// Run advances the simulation until every Doner reports done, or the
// cycle limit is hit. It returns the final cycle count.
func (e *Engine) Run() (Cycle, error) {
	if len(e.doners) == 0 {
		return e.now, fmt.Errorf("sim: no completion conditions registered")
	}
	if !e.EventDriven() {
		for {
			if e.allDone() {
				return e.now, nil
			}
			if e.now >= e.maxCycle {
				return e.now, e.deadlockError(false)
			}
			e.Step()
		}
	}
	// Wake-set mode. Start from a clean slate: every component is due on
	// the first cycle (mirroring per-cycle execution, which ticks
	// everything from cycle 1), and hints are collected as they tick.
	e.resetDue()
	for {
		if e.allDone() {
			return e.now, nil
		}
		if e.now >= e.maxCycle {
			return e.now, e.deadlockError(false)
		}
		next := e.nextDue()
		if next == WakeNever {
			// No component will ever act again, yet Doners are pending: a
			// true deadlock. Report it at the stall cycle instead of
			// silently advancing to the cycle limit.
			return e.now, e.deadlockError(true)
		}
		if next > e.maxCycle {
			// The earliest scheduled work lies beyond the limit (a
			// livelock against the clock); stop at the limit like
			// per-cycle mode would.
			e.IdleSkipped += int64(e.maxCycle - e.now - 1)
			e.now = e.maxCycle
			return e.now, e.deadlockError(false)
		}
		e.IdleSkipped += int64(next - e.now - 1)
		e.advance(next)
		e.dispatch()
	}
}

// RunWindow advances the wake-set scheduler through every due cycle
// strictly before end, then returns. Unlike Run it enforces no
// completion or cycle-limit policy: it is how tests and benchmarks step
// the engine by hand.
func (e *Engine) RunWindow(end Cycle) {
	for next := e.nextDue(); next < end; next = e.nextDue() {
		e.advance(next)
		e.dispatch()
	}
}

// NextDue reports the earliest cycle any component is due at
// (WakeNever when the engine is fully quiescent). Only meaningful in
// wake-set mode.
func (e *Engine) NextDue() Cycle { return e.nextDue() }

func (e *Engine) allDone() bool {
	for _, d := range e.doners {
		if !d.Done() {
			return false
		}
	}
	return true
}
