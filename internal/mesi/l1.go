// Package mesi implements the paper's baseline: a full-map MESI directory
// protocol. Each private L1 holds lines in Invalid/Shared/Exclusive/
// Modified; the NUCA L2 tiles keep an inclusive directory with a full
// sharing vector, eagerly invalidating sharers on writes. Transient
// races are serialized with a blocking directory (see DESIGN.md §6).
package mesi

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L1 line states.
const (
	stateS = iota + 1
	stateE
	stateM
)

type l1Line struct {
	state uint8
}

// L1 is one core's private cache controller: the shared skeleton
// (coherence.L1Base) plus the MESI line states and handlers.
type L1 struct {
	coherence.L1Base
	cache *memsys.Cache[l1Line]
}

// NewL1 builds the L1 controller for the given core.
func NewL1(core, cores int, sizeBytes, ways int, hitLat sim.Cycle, net coherence.Network) *L1 {
	l := &L1{cache: memsys.NewCache[l1Line](sizeBytes, ways)}
	l.Init("mesi", core, cores, hitLat, net, l.handle)
	return l
}

// ---- CorePort ----

// Load implements coherence.CorePort.
func (l *L1) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	if l.LoadBlocked(coherence.BlockAddr(addr)) {
		return false
	}
	if w := l.cache.Lookup(addr); w != nil {
		if l.EvictFault != nil && !w.Busy && l.EvictFault() {
			l.evictLine(now, w) // forced early self-eviction; take the miss path
		} else {
			if w.Meta.state == stateS {
				l.Stats.ReadHitShared.Inc()
			} else {
				l.Stats.ReadHitPrivate.Inc()
			}
			l.CompleteVal(now, cb, memsys.GetWord(l.cache.Block(w), addr))
			return true
		}
	}
	l.Stats.ReadMissInvalid.Inc()
	l.IssueRead(now, addr, cb)
	return true
}

// Store implements coherence.CorePort.
func (l *L1) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	blk := coherence.BlockAddr(addr)
	if l.StoreBlocked(blk) {
		return false
	}
	if w := l.cache.Lookup(addr); w != nil && w.Meta.state != stateS {
		if l.EvictFault != nil && !w.Busy && l.EvictFault() {
			l.evictLine(now, w) // forced early self-eviction; take the miss path
		} else {
			l.Trans(blk, int(w.Meta.state), stateM)
			w.Meta.state = stateM
			memsys.PutWord(l.cache.Block(w), addr, val)
			l.Stats.WriteHitPrivate.Inc()
			l.CompleteNext(now, cb)
			return true
		}
	}
	l.IssueWrite(now, coherence.WriteTx{WordAddr: addr, Val: val, StoreCb: cb, Upgrade: l.pinForUpgrade(addr)})
	return true
}

// RMW implements coherence.CorePort.
func (l *L1) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	blk := coherence.BlockAddr(addr)
	if l.StoreBlocked(blk) {
		return false
	}
	if w := l.cache.Lookup(addr); w != nil && w.Meta.state != stateS {
		if l.EvictFault != nil && !w.Busy && l.EvictFault() {
			l.evictLine(now, w) // forced early self-eviction; take the miss path
		} else {
			old := memsys.GetWord(l.cache.Block(w), addr)
			if nv, doWrite := f(old); doWrite {
				memsys.PutWord(l.cache.Block(w), addr, nv)
				l.Trans(blk, int(w.Meta.state), stateM)
				w.Meta.state = stateM
			}
			l.Stats.WriteHitPrivate.Inc()
			l.Stats.RMWLat.Observe(int64(l.HitLat))
			l.CompleteVal(now, cb, old)
			return true
		}
	}
	l.IssueWrite(now, coherence.WriteTx{WordAddr: addr, IsRMW: true, F: f, RMWCb: cb, Upgrade: l.pinForUpgrade(addr)})
	return true
}

// pinForUpgrade counts a write miss and reports whether it is an
// upgrade of a locally Shared copy, which it pins: a concurrent read's
// fill must not evict it while the upgrade is in flight (a data-less
// UpgAck would then have nothing to upgrade).
func (l *L1) pinForUpgrade(addr uint64) bool {
	if w := l.cache.Peek(addr); w != nil && w.Meta.state == stateS {
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
			panic(fmt.Sprintf("mesi: L1 %d cycle %d: unexpected UpgAck %s", l.ID, now, m))
		}
		w := l.cache.Peek(m.Addr)
		if w == nil || w.Meta.state != stateS {
			panic(fmt.Sprintf("mesi: L1 %d cycle %d: UpgAck without Shared line %s", l.ID, now, m))
		}
		l.completeWrite(now, nil)
		l.Send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.Home(m.Addr), Addr: m.Addr}, nil)

	case coherence.MsgFwdGetS:
		l.handleFwdGetS(now, m)

	case coherence.MsgFwdGetX:
		l.handleFwdGetX(now, m)

	case coherence.MsgInv:
		l.handleInv(now, m)

	case coherence.MsgPutAck:
		l.ReleaseEvict(m.Addr)

	default:
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: unexpected message %s", l.ID, now, m))
	}
}

func (l *L1) completeWrite(now sim.Cycle, data []byte) {
	tx := l.Wr
	w := l.cache.Peek(tx.Addr)
	from := 0
	if w != nil {
		from = int(w.Meta.state)
	}
	if data != nil {
		// Fresh data arrived; (re)install the line.
		w, from = l.install(now, tx.Addr, data)
	}
	if w == nil {
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: write completion without line %#x", l.ID, now, tx.Addr))
	}
	w.Busy = false
	l.Trans(tx.Addr, from, stateM)
	w.Meta.state = stateM
	old := memsys.GetWord(l.cache.Block(w), tx.WordAddr)
	if nv, wrote := tx.Apply(old); wrote {
		memsys.PutWord(l.cache.Block(w), tx.WordAddr, nv)
	}
	l.FinishWrite(now, old)
}

func (l *L1) completeRead(now sim.Cycle, m *coherence.Msg, state uint8) {
	tx, install := l.PendingRead(now, m)
	if install {
		w, from := l.install(now, m.Addr, m.Data)
		l.Trans(m.Addr, from, int(state))
		w.Meta.state = state
	}
	l.FinishRead(now, memsys.GetWord(m.Data, tx.WordAddr))
}

// install places data for addr and returns the way plus the line's
// prior state (0 when freshly installed) for transition reporting.
func (l *L1) install(now sim.Cycle, addr uint64, data []byte) (*memsys.Way[l1Line], int) {
	if w := l.cache.Peek(addr); w != nil {
		copy(l.cache.Block(w), data)
		return w, int(w.Meta.state)
	}
	w := l.cache.Victim(addr)
	if w == nil {
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: no victim for %#x", l.ID, now, addr))
	}
	if w.Valid {
		l.evictLine(now, w)
	}
	l.cache.Install(w, addr)
	copy(l.cache.Block(w), data)
	return w, 0
}

func (l *L1) evictLine(now sim.Cycle, w *memsys.Way[l1Line]) {
	addr := w.Tag
	l.Trans(addr, int(w.Meta.state), 0)
	switch w.Meta.state {
	case stateS:
		l.Send(now, coherence.Msg{Type: coherence.MsgPutS, Dst: l.Home(addr), Addr: addr}, nil)
	case stateE:
		l.BufferEvict(addr, l.cache.Block(w), false)
		l.Send(now, coherence.Msg{Type: coherence.MsgPutE, Dst: l.Home(addr), Addr: addr}, nil)
	case stateM:
		l.BufferEvict(addr, l.cache.Block(w), true)
		l.Send(now, coherence.Msg{Type: coherence.MsgPutM, Dst: l.Home(addr), Addr: addr,
			Dirty: true}, l.cache.Block(w))
	}
	l.cache.Invalidate(w)
}

func (l *L1) handleFwdGetS(now sim.Cycle, m *coherence.Msg) {
	if w := l.cache.Peek(m.Addr); w != nil && w.Meta.state != stateS {
		dirty := w.Meta.state == stateM
		l.Trans(m.Addr, int(w.Meta.state), stateS)
		w.Meta.state = stateS
		l.Send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr}, l.cache.Block(w))
		l.Send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: l.Home(m.Addr), Addr: m.Addr,
			Dirty: dirty}, l.cache.Block(w))
		return
	}
	if e := l.ForwardEvicted(m.Addr); e != nil {
		l.Send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr}, e.Data)
		l.Send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: l.Home(m.Addr), Addr: m.Addr,
			Dirty: e.Dirty, NoCopy: true}, e.Data)
		return
	}
	panic(fmt.Sprintf("mesi: L1 %d cycle %d: FwdGetS for absent line %s", l.ID, now, m))
}

func (l *L1) handleFwdGetX(now sim.Cycle, m *coherence.Msg) {
	if w := l.cache.Peek(m.Addr); w != nil && w.Meta.state != stateS {
		l.Send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Dirty: w.Meta.state == stateM}, l.cache.Block(w))
		l.Trans(m.Addr, int(w.Meta.state), 0)
		l.cache.Invalidate(w)
		return
	}
	if e := l.ForwardEvicted(m.Addr); e != nil {
		l.Send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Dirty: e.Dirty}, e.Data)
		return
	}
	panic(fmt.Sprintf("mesi: L1 %d cycle %d: FwdGetX for absent line %s", l.ID, now, m))
}

func (l *L1) handleInv(now sim.Cycle, m *coherence.Msg) {
	l.Stats.InvalidationsReceived.Inc()
	l.SquashRead(m.Addr)
	if w := l.cache.Peek(m.Addr); w != nil {
		l.Trans(m.Addr, int(w.Meta.state), 0)
		if w.Meta.state != stateS {
			// Directory recall of an exclusive line (L2 eviction).
			l.Send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: m.Src, Addr: m.Addr,
				Dirty: w.Meta.state == stateM}, l.cache.Block(w))
			l.cache.Invalidate(w)
			return
		}
		l.cache.Invalidate(w)
		l.Send(now, coherence.Msg{Type: coherence.MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
		return
	}
	if e := l.ForwardEvicted(m.Addr); e != nil {
		l.Send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: m.Src, Addr: m.Addr,
			Dirty: e.Dirty}, e.Data)
		return
	}
	// Invalidation for a line we no longer hold (crossed a PutS).
	l.Send(now, coherence.Msg{Type: coherence.MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
}

// PrewarmStorage implements coherence.Controller.
func (l *L1) PrewarmStorage() { l.cache.Prewarm() }
