// Package check provides runtime invariant oracles for the simulator:
// decorators and observers that catch coherence/consistency violations
// at the cycle they occur, instead of leaving them to surface as a
// diverged end-state fingerprint thousands of cycles later.
//
// Three oracle families run behind a per-core port decorator (Tracker):
//
//   - SWMR: after every committed store/RMW the checker snoops every
//     L1; at most one may hold the block in an authoritative (E/M)
//     state. (Shared copies are allowed arbitrarily — TSO-CC
//     deliberately keeps stale shared lines.)
//   - Data-value: every load must return a value that was actually
//     written to that address (or its lazily-learned initial value) —
//     the protocol may serve stale data, but never invented data.
//     Per-(core,addr) reads must additionally not regress: once a core
//     has observed a write, later loads must not return values
//     committed long before it (see skewWindow for the tolerance).
//   - TSO ordering: the port admission discipline of a TSO front end —
//     at most one blocking op (load/RMW/fence) outstanding per core,
//     no overlapping stores, atomics and fences only admitted with an
//     empty write buffer.
//
// Violations are recorded, not panicked: a broken protocol still runs
// to completion (or deadlock) deterministically, and the harness
// surfaces Err() after the run. The tracker observes committed writes
// in completion-callback order, which under message-delay injection may
// differ slightly from the directory's serialization order; ordering
// oracles therefore tolerate a bounded commit-time skew rather than
// demanding exact sequence agreement (a real regression in a broken
// protocol is unboundedly stale and still trips the oracle).
package check

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/sim"
)

// skewWindow is the commit-time tolerance (in cycles) of the per-core
// read-regression oracle. Two writes' completion callbacks can fire in
// the opposite order of their directory serialization when their acks
// travel different mesh paths; the skew is bounded by a message
// round-trip (tens of cycles, even with injected delay), far below
// this window. A genuine stale-read bug (a line that self-invalidation
// should have refreshed) regresses by arbitrarily more.
const skewWindow = 512

// maxViolations bounds the recorded violation list; later violations
// only bump the counter.
const maxViolations = 32

// Violation is one oracle failure. Core is the reporting node's index:
// a core for the port oracles, a controller/tile index for the
// "legality" and "txlife" oracles.
type Violation struct {
	Cycle sim.Cycle
	Core  int
	Kind  string // "swmr", "value", "stale", "order", "legality", "txlife"
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d core %d [%s]: %s", v.Cycle, v.Core, v.Kind, v.Msg)
}

// writeRec is one committed write in completion order.
type writeRec struct {
	seq   uint64
	val   uint64
	cycle sim.Cycle
	core  int
}

// addrState is the oracle's view of one word address.
type addrState struct {
	hist      []writeRec // committed writes, completion-callback order
	pending   []uint64   // admitted, not yet committed values (multiset)
	init      uint64     // lazily learned pre-run value
	initKnown bool
}

// floor is the newest write a core has provably observed at an address.
type floor struct {
	seq   uint64
	cycle sim.Cycle
}

// Tracker is the shared oracle state for one machine. It is
// single-goroutine like the simulator. Wrap every core's port with
// WrapPort; the tracker then observes all admissions and completions.
type Tracker struct {
	l1s []coherence.Controller
	now func() sim.Cycle

	seq     uint64
	addrs   map[uint64]*addrState
	nViol   int
	viols   []Violation
	scratch []int // SWMR scan scratch: authoritative holders
}

// New builds a tracker. l1s are snooped for the SWMR oracle (pass every
// L1 controller); now reports the current cycle (completion callbacks
// carry no cycle argument).
func New(l1s []coherence.Controller, now func() sim.Cycle) *Tracker {
	return &Tracker{
		l1s:   l1s,
		now:   now,
		addrs: make(map[uint64]*addrState),
	}
}

// Violations returns the recorded violations (capped) and the total
// count, which may exceed the returned slice.
func (t *Tracker) Violations() ([]Violation, int) { return t.viols, t.nViol }

// Err summarizes recorded violations as an error, nil if none.
func (t *Tracker) Err() error {
	if t.nViol == 0 {
		return nil
	}
	s := fmt.Sprintf("check: %d invariant violation(s)", t.nViol)
	for _, v := range t.viols {
		s += "\n  " + v.String()
	}
	if t.nViol > len(t.viols) {
		s += fmt.Sprintf("\n  ... %d more", t.nViol-len(t.viols))
	}
	return fmt.Errorf("%s", s)
}

func (t *Tracker) violate(core int, kind, format string, args ...any) {
	t.nViol++
	if len(t.viols) < maxViolations {
		t.viols = append(t.viols, Violation{
			Cycle: t.now(),
			Core:  core,
			Kind:  kind,
			Msg:   fmt.Sprintf(format, args...),
		})
	}
}

func (t *Tracker) state(addr uint64) *addrState {
	a, ok := t.addrs[addr]
	if !ok {
		a = &addrState{}
		t.addrs[addr] = a
	}
	return a
}

func removeOne(s []uint64, v uint64) []uint64 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// admit records a store admission (value enters the pending set).
func (t *Tracker) admit(addr, val uint64) {
	a := t.state(addr)
	a.pending = append(a.pending, val)
}

// commit records a completed write and runs the SWMR scan.
func (t *Tracker) commit(p *Port, addr, val uint64) {
	a := t.state(addr)
	a.pending = removeOne(a.pending, val)
	t.seq++
	a.hist = append(a.hist, writeRec{seq: t.seq, val: val, cycle: t.now(), core: p.core})
	// The writer has observed its own write.
	p.floors[addr] = floor{seq: t.seq, cycle: t.now()}

	// SWMR: at most one L1 may hold the block authoritatively (E/M).
	block := config.BlockAddr(addr)
	t.scratch = t.scratch[:0]
	for i, l1 := range t.l1s {
		if _, ok := l1.SnoopBlock(block); ok {
			t.scratch = append(t.scratch, i)
		}
	}
	if len(t.scratch) > 1 {
		t.violate(p.core, "swmr",
			"block %#x held authoritatively by %d L1s %v after write of %#x",
			block, len(t.scratch), t.scratch, val)
	}
}

// observe checks a load (or RMW-read) result against the legal value
// set and advances the core's per-address floor.
func (t *Tracker) observe(p *Port, addr, val uint64) {
	a := t.state(addr)
	if !a.initKnown && len(a.hist) == 0 && !contains(a.pending, val) {
		// First observation of an untouched address defines its initial
		// value; later reads hold each other to it.
		a.init = val
		a.initKnown = true
		return
	}
	inPending := contains(a.pending, val)
	best := writeRec{} // zero seq = "only the initial value matches"
	found := false
	for i := len(a.hist) - 1; i >= 0; i-- {
		if a.hist[i].val == val {
			best = a.hist[i]
			found = true
			break // hist is seq-ordered; first hit from the back is max
		}
	}
	isInit := a.initKnown && val == a.init
	if !found && !isInit && !inPending {
		t.violate(p.core, "value",
			"load of %#x returned %#x, never written there (writes seen: %d, pending: %d)",
			addr, val, len(a.hist), len(a.pending))
		return
	}
	fl := p.floors[addr]
	switch {
	case inPending && !found && !isInit:
		// Only an in-flight write matches: its commit record does not
		// exist yet, so the floor neither advances nor regresses.
	case found && best.seq >= fl.seq:
		p.floors[addr] = floor{seq: best.seq, cycle: best.cycle}
	case inPending:
		// An older committed copy matches, but so does an in-flight
		// write; give the read the benefit of the doubt.
	case found && fl.cycle-best.cycle <= skewWindow:
		// Apparent regression within commit-order skew tolerance.
	case found:
		t.violate(p.core, "stale",
			"load of %#x returned %#x (write seq %d, cycle %d) after core observed seq %d (cycle %d)",
			addr, val, best.seq, best.cycle, fl.seq, fl.cycle)
	case isInit && fl.seq > 0 && fl.cycle+skewWindow < t.now():
		t.violate(p.core, "stale",
			"load of %#x returned initial value %#x after core observed write seq %d (cycle %d)",
			addr, val, fl.seq, fl.cycle)
	}
}

// LegalitySink builds a transition sink for one controller that
// validates every reported state hop against the protocol's registered
// legality table (see coherence.Probe.Transition). node identifies
// the controller in violation records (core index for L1s, tile index
// for L2s); level labels the message ("L1"/"L2"). The sink runs
// continuously — an illegal hop is recorded the cycle it happens, with
// the protocol's own state names.
func (t *Tracker) LegalitySink(node int, level string, tbl *coherence.StateTable) func(addr uint64, from, to int) {
	return func(addr uint64, from, to int) {
		if !tbl.Legal(from, to) {
			t.violate(node, "legality", "%s line %#x took illegal transition %s -> %s",
				level, addr, tbl.Name(from), tbl.Name(to))
		}
	}
}

// TxLifeSink builds a report function for one directory tile's TxTable
// lifecycle audit (see coherence.TxTable.ArmAudit): double registrations,
// unregistered retirements, and transactions outstanding past the audit
// age all land here as "txlife" violations instead of only surfacing in
// an end-of-run leak count.
func (t *Tracker) TxLifeSink(tile int) func(string) {
	return func(msg string) { t.violate(tile, "txlife", "%s", msg) }
}

// Port is the per-core oracle decorator. It implements
// coherence.CorePort and must be the outermost wrapper (it observes
// what the core actually sees, including injected faults below it).
type Port struct {
	t     *Tracker
	core  int
	inner coherence.CorePort

	floors map[uint64]floor

	blocked  bool // a load/RMW/fence is outstanding
	storeOut int  // admitted stores whose callbacks are pending

	rmwVal     uint64 // scratch: value the in-flight RMW will write
	rmwApplied bool
}

// WrapPort decorates a core's port with the oracles.
func (t *Tracker) WrapPort(core int, inner coherence.CorePort) *Port {
	return &Port{t: t, core: core, inner: inner, floors: make(map[uint64]floor)}
}

// Admission bookkeeping pattern: oracle state is set before the inner
// call and rolled back on decline, so a completion callback that fires
// during the inner call (however unlikely) still observes consistent
// state.

// Load implements coherence.CorePort.
func (p *Port) Load(now sim.Cycle, addr uint64, cb func(val uint64)) bool {
	wasBlocked := p.blocked
	p.blocked = true
	ok := p.inner.Load(now, addr, func(val uint64) {
		p.blocked = false
		p.t.observe(p, addr, val)
		cb(val)
	})
	if !ok {
		p.blocked = wasBlocked
		return false
	}
	if wasBlocked {
		p.t.violate(p.core, "order", "load of %#x admitted while another blocking op is outstanding", addr)
	}
	return true
}

// Store implements coherence.CorePort.
func (p *Port) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	wasOut := p.storeOut
	p.storeOut++
	p.t.admit(addr, val)
	ok := p.inner.Store(now, addr, val, func() {
		p.storeOut--
		p.t.commit(p, addr, val)
		cb()
	})
	if !ok {
		p.storeOut--
		a := p.t.state(addr)
		a.pending = removeOne(a.pending, val)
		return false
	}
	if wasOut > 0 {
		p.t.violate(p.core, "order", "store to %#x admitted while an older store is in flight", addr)
	}
	return true
}

// RMW implements coherence.CorePort. The modify function is wrapped so
// the oracle sees the read value at application time and learns the
// written value.
func (p *Port) RMW(now sim.Cycle, addr uint64, f func(old uint64) (uint64, bool), cb func(old uint64)) bool {
	wasBlocked := p.blocked
	p.blocked = true
	p.rmwApplied = false
	ok := p.inner.RMW(now, addr, func(old uint64) (uint64, bool) {
		nv, applied := f(old)
		p.t.observe(p, addr, old)
		if applied {
			p.t.admit(addr, nv)
			p.rmwVal, p.rmwApplied = nv, true
		}
		return nv, applied
	}, func(old uint64) {
		p.blocked = false
		if p.rmwApplied {
			p.t.commit(p, addr, p.rmwVal)
			p.rmwApplied = false
		}
		cb(old)
	})
	if !ok {
		p.blocked = wasBlocked
		return false
	}
	if wasBlocked {
		p.t.violate(p.core, "order", "RMW of %#x admitted while another blocking op is outstanding", addr)
	}
	if p.storeOut > 0 {
		p.t.violate(p.core, "order", "RMW of %#x admitted with a store in flight (write buffer not drained)", addr)
	}
	return true
}

// Fence implements coherence.CorePort.
func (p *Port) Fence(now sim.Cycle, cb func()) bool {
	wasBlocked := p.blocked
	p.blocked = true
	ok := p.inner.Fence(now, func() {
		p.blocked = false
		cb()
	})
	if !ok {
		p.blocked = wasBlocked
		return false
	}
	if wasBlocked {
		p.t.violate(p.core, "order", "fence admitted while another blocking op is outstanding")
	}
	if p.storeOut > 0 {
		p.t.violate(p.core, "order", "fence admitted with a store in flight (write buffer not drained)")
	}
	return true
}
