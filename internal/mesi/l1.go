// Package mesi implements the paper's baseline: a full-map MESI directory
// protocol. Each private L1 holds lines in Invalid/Shared/Exclusive/
// Modified; the NUCA L2 tiles keep an inclusive directory with a full
// sharing vector, eagerly invalidating sharers on writes. Transient
// races are serialized with a blocking directory (see DESIGN.md §6).
package mesi

import (
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L1 line states (memsys.Way.State; 0 = Invalid).
const (
	stateS = iota + 1
	stateE
	stateM
)

// l1Line is the MESI L1's line metadata beyond the state: none.
type l1Line struct{}

// L1 is one core's private cache controller: the shared skeleton
// (coherence.L1Base, which serves both the requester's and the owner's
// side) plus the MESI line states and hooks.
type L1 struct {
	coherence.L1Base[l1Line]
}

// NewL1 builds the L1 controller for the given core.
func NewL1(core int, sys config.System, net coherence.Network) *L1 {
	l := &L1{}
	l.Init("mesi", core, sys, net, coherence.L1Spec[l1Line]{
		Shared: stateS, Excl: stateE, Mod: stateM,
		Evict: l.evict, Downgrade: l.downgrade, WriteMiss: l.pinForUpgrade,
	})
	return l
}

// ---- CorePort ----

// Load implements coherence.CorePort.
func (l *L1) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	if l.LoadBlocked(addr) {
		return false
	}
	if w := l.Cache.Lookup(addr); w != nil && !l.SelfEvicts(now, w) {
		if w.State == stateS {
			l.Stats.ReadHitShared.Inc()
		} else {
			l.Stats.ReadHitPrivate.Inc()
		}
		l.CompleteVal(now, cb, memsys.GetWord(l.Cache.Block(w), addr))
		return true
	}
	l.Stats.ReadMissInvalid.Inc()
	l.IssueRead(now, addr, cb)
	return true
}

// Fence implements coherence.CorePort. MESI is eagerly coherent; a fence
// needs no cache actions beyond the core's write-buffer drain.
func (l *L1) Fence(now sim.Cycle, cb func()) bool {
	l.CompleteNext(now, cb)
	return true
}

// ---- L1Base hooks ----

// pinForUpgrade counts a write miss and, if it upgrades a locally Shared
// copy, pins that copy: a concurrent read's fill must not evict it
// while the upgrade is in flight (a data-less UpgAck would then have
// nothing to upgrade). L1Base unpins it when the write completes.
func (l *L1) pinForUpgrade(w *memsys.Way[l1Line]) {
	if w != nil && w.State == stateS {
		l.Pin(w)
		l.Stats.WriteMissShared.Inc()
		return
	}
	l.Stats.WriteMissInvalid.Inc()
}

// evict hands a Shared copy back with a PutS.
func (l *L1) evict(now sim.Cycle, w *memsys.Way[l1Line]) {
	l.Send(now, coherence.Msg{Type: coherence.MsgPutS, Dst: l.Home(w.Tag), Addr: w.Tag}, nil)
}

// downgrade leaves an owned line that answered a forwarded GetS Shared.
func (l *L1) downgrade(w *memsys.Way[l1Line]) { l.Set(w, stateS) }
