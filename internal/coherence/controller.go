package coherence

import (
	"fmt"

	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Controller is the engine-facing interface of any coherence endpoint
// (L1 or L2). Deliver is the mesh endpoint hook; Busy reports whether
// transactions, queued messages or timers are still outstanding (used by
// the system-level completion and deadlock checks); NextWake is the
// sim.WakeHinter scheduling contract (the earliest cycle the controller
// may act on its own, or sim.WakeNever); BindWaker is the sim.WakeSink
// hook — controllers must wake themselves whenever work lands on them
// from outside their own Tick (a delivered message, a timer scheduled
// by the core's port call), since the wake-set engine ticks only due
// components and re-polls NextWake only after a tick.
type Controller interface {
	Deliver(now sim.Cycle, m *Msg)
	sim.Ticker // Tick and NextWake
	BindWaker(w sim.Waker)
	Busy() bool
	// SnoopBlock returns the controller's copy of the block at addr if it
	// holds an authoritative one (L1: Exclusive/Modified; L2: any valid
	// line). Used after a run completes so functional checks observe the
	// freshest value without forcing writebacks.
	SnoopBlock(addr uint64) ([]byte, bool)
	// Hooks returns the controller's probe surface; the system layer
	// sets fields on it at build time (see Probe).
	Hooks() *Probe
}

// L1Like is the full interface of a private-cache controller: a
// Controller that also serves its core's memory operations and exposes
// the standard statistics block.
type L1Like interface {
	Controller
	CorePort
	L1Stats() *L1Stats
}

// Directory is the system layer's view of a directory (L2) tile: a
// Controller that owns a TxTable. DirBase implements all of it, so a
// protocol's tile satisfies it by embedding the base.
type Directory interface {
	Controller
	sim.Labeled
	// Tx exposes the tile's transaction table: the stall hook, the
	// lifecycle audit, the obs sinks and the forensic dump live on it.
	Tx() *TxTable
	// TxKindName names a transaction kind in protocol state terms
	// (timeline span labels, e.g. "await-ack").
	TxKindName(kind int) string
	// ObsCounters lists the tile's event counters for the metrics
	// registry; each must carry a name (the registry's unnamed-counter
	// test enforces this).
	ObsCounters() []*stats.Counter
	// SnoopOwner reports the L1 holding addr exclusively, if any, so
	// post-run functional reads snoop only the cache that can hold the
	// freshest copy.
	SnoopOwner(addr uint64) (NodeID, bool)
}

// Probe is the one probe surface of a controller: every point where a
// fault profile perturbs it or an oracle / the observability layer
// watches it. L1Base and DirBase embed one, so a protocol inherits every
// hook by embedding a base; the system layer sets the fields it needs
// after Protocol.Build and before the first tick. All fields are nil in
// a nominal run and every consultation is nil-guarded, so a run without
// faults, checks or obs pays one predictable branch per site.
type Probe struct {
	// EvictFault (L1, "evict" profile) is consulted by L1Base.SelfEvicts,
	// which Load/Store/RMW call on an access that hits a valid, unpinned
	// line; a true return evicts the line through the normal victim
	// machinery and the access takes the miss path instead.
	EvictFault func() bool
	// ResetFault (L1 and directory, "reset-storm" profile) is consulted
	// at each timestamp assignment; a true return forces the
	// controller's reset/rollover broadcast as if the timestamp space
	// were exhausted. Controllers without timestamps never consult it.
	ResetFault func() bool
	// AckDelay (directory, "victim" profile) is consulted by
	// DirBase.SendPutAck and returns extra cycles to hold the PutAck
	// back (0 = on time).
	AckDelay func() sim.Cycle
	// Transition (L1 and directory, legality oracle) receives every
	// line-state mutation as (address, from, to) in the protocol's own
	// state ids (0 = invalid/absent) — direct hops only. The bases'
	// state setter (Set / Drop) reports every hop through Trans.
	Transition func(addr uint64, from, to int)
	// MissLatency (L1, obs layer) receives each completed miss: whether
	// it was a read and how many cycles the request was outstanding.
	// Reported by L1Base as each miss completes.
	MissLatency func(read bool, cycles sim.Cycle)
}

// Hooks implements Controller for anything that embeds a Probe.
func (p *Probe) Hooks() *Probe { return p }

// Trans reports a line-state transition to the legality oracle;
// self-loops are dropped here so call sites stay simple. It is kept out
// of line: its one caller, the state setter, runs on every store hit
// and must stay within the inlining budget, while Trans runs only when
// the oracle is armed.
//
//go:noinline
func (p *Probe) Trans(addr uint64, from, to int) {
	if p.Transition != nil && from != to {
		p.Transition(addr, from, to)
	}
}

// lines is a controller's cache array as both bases hold it, with the
// one state setter: protocols write a line's state only through Set and
// Drop, so the legality oracle sees every hop.
type lines[M any] struct {
	Cache *memsys.Cache[M]
	probe *Probe // the owning base's
}

// Set moves w to protocol state s, reporting the hop to the probe
// (self-loops are not hops).
func (a *lines[M]) Set(w *memsys.Way[M], s uint8) {
	if a.probe.Transition != nil {
		a.probe.Trans(w.Tag, int(w.State), int(s))
	}
	w.State = s
}

// Drop invalidates w, reporting its hop to state 0.
func (a *lines[M]) Drop(w *memsys.Way[M]) {
	a.Set(w, 0)
	a.Cache.Invalidate(w)
}

// ctlLabel names a controller in forensic reports and panics ("mesi L1
// 3", "tsocc L2 tile 0").
type ctlLabel string

// ComponentLabel implements sim.Labeled.
func (c ctlLabel) ComponentLabel() string { return string(c) }

// Panicf reports a protocol bug: it panics with the controller's label
// and the cycle, e.g. "mesi L2 tile 3 cycle 120: stray Ack ...".
func (c ctlLabel) Panicf(now sim.Cycle, format string, args ...any) {
	panic(fmt.Sprintf("%s cycle %d: %s", c, now, fmt.Sprintf(format, args...)))
}
