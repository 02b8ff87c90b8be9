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
// (coherence.L1Base) plus the MESI line states and handlers.
type L1 struct {
	coherence.L1Base[l1Line]
}

// NewL1 builds the L1 controller for the given core.
func NewL1(core int, sys config.System, net coherence.Network) *L1 {
	l := &L1{}
	l.Init("mesi", core, sys, net, stateE, stateM, l.handle, l.evict, nil, l.downgrade)
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

// Store implements coherence.CorePort.
func (l *L1) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	if l.StoreBlocked(addr) {
		return false
	}
	if w := l.Cache.Lookup(addr); w != nil && w.State != stateS && !l.SelfEvicts(now, w) {
		l.Set(w, stateM)
		memsys.PutWord(l.Cache.Block(w), addr, val)
		l.Stats.WriteHitPrivate.Inc()
		l.CompleteNext(now, cb)
		return true
	}
	l.IssueWrite(now, coherence.WriteTx{WordAddr: addr, Val: val, StoreCb: cb, Upgrade: l.pinForUpgrade(addr)})
	return true
}

// RMW implements coherence.CorePort.
func (l *L1) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	if l.StoreBlocked(addr) {
		return false
	}
	if w := l.Cache.Lookup(addr); w != nil && w.State != stateS && !l.SelfEvicts(now, w) {
		old := memsys.GetWord(l.Cache.Block(w), addr)
		if nv, doWrite := f(old); doWrite {
			memsys.PutWord(l.Cache.Block(w), addr, nv)
			l.Set(w, stateM)
		}
		l.Stats.WriteHitPrivate.Inc()
		l.Stats.RMWLat.Observe(int64(l.HitLat))
		l.CompleteVal(now, cb, old)
		return true
	}
	l.IssueWrite(now, coherence.WriteTx{WordAddr: addr, IsRMW: true, F: f, RMWCb: cb, Upgrade: l.pinForUpgrade(addr)})
	return true
}

// pinForUpgrade counts a write miss and reports whether it is an
// upgrade of a locally Shared copy, which it pins: a concurrent read's
// fill must not evict it while the upgrade is in flight (a data-less
// UpgAck would then have nothing to upgrade).
func (l *L1) pinForUpgrade(addr uint64) bool {
	if w := l.Cache.Peek(addr); w != nil && w.State == stateS {
		w.Busy = true
		l.Stats.WriteMissShared.Inc()
		return true
	}
	l.Stats.WriteMissInvalid.Inc()
	return false
}

// Fence implements coherence.CorePort. MESI is eagerly coherent; a fence
// needs no cache actions beyond the core's write-buffer drain.
func (l *L1) Fence(now sim.Cycle, cb func()) bool {
	l.CompleteNext(now, cb)
	return true
}

// ---- Message handling ----

func (l *L1) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgDataE:
		l.Stats.DataResponses.Inc()
		if l.WritePending(m.Addr) {
			l.completeWrite(now, m.Data)
		} else {
			l.completeRead(now, m, stateE)
		}
		l.Send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.Home(m.Addr), Addr: m.Addr}, nil)

	case coherence.MsgDataS:
		l.Stats.DataResponses.Inc()
		l.completeRead(now, m, stateS)

	case coherence.MsgDataOwner:
		l.Stats.DataResponses.Inc()
		if l.WritePending(m.Addr) {
			l.completeWrite(now, m.Data)
			l.Send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.Home(m.Addr), Addr: m.Addr}, nil)
			return
		}
		l.completeRead(now, m, stateS)

	case coherence.MsgUpgAck:
		if !l.WritePending(m.Addr) {
			l.Panicf(now, "unexpected UpgAck %s", m)
		}
		if w := l.Cache.Peek(m.Addr); w == nil || w.State != stateS {
			l.Panicf(now, "UpgAck without Shared line %s", m)
		}
		l.completeWrite(now, nil)
		l.Send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.Home(m.Addr), Addr: m.Addr}, nil)

	default:
		l.Panicf(now, "unexpected message %s", m)
	}
}

// completeWrite applies the pending write once the line is exclusive:
// with fresh data (re)installed, or — for an UpgAck, data nil — on the
// pinned Shared copy.
func (l *L1) completeWrite(now sim.Cycle, data []byte) {
	tx := l.Wr
	w := l.Cache.Peek(tx.Addr)
	if data != nil {
		w = l.Install(now, tx.Addr, data)
	}
	w.Busy = false
	l.Set(w, stateM)
	old := memsys.GetWord(l.Cache.Block(w), tx.WordAddr)
	if nv, wrote := tx.Apply(old); wrote {
		memsys.PutWord(l.Cache.Block(w), tx.WordAddr, nv)
	}
	l.FinishWrite(now, old)
}

func (l *L1) completeRead(now sim.Cycle, m *coherence.Msg, state uint8) {
	tx, install := l.PendingRead(now, m)
	if install {
		l.Set(l.Install(now, m.Addr, m.Data), state)
	}
	l.FinishRead(now, memsys.GetWord(m.Data, tx.WordAddr))
}

// evict is the L1Base evict body for a Shared copy: it leaves with a
// PutS.
func (l *L1) evict(now sim.Cycle, w *memsys.Way[l1Line]) {
	l.Send(now, coherence.Msg{Type: coherence.MsgPutS, Dst: l.Home(w.Tag), Addr: w.Tag}, nil)
}

// downgrade is the L1Base hook for an owned line that answered a
// forwarded GetS: it stays Shared.
func (l *L1) downgrade(w *memsys.Way[l1Line]) { l.Set(w, stateS) }
