package mesi

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L2 directory line states (memsys.Way.State; invalid way = not present).
const (
	dirV = iota + 1 // valid at L2, no L1 copies
	dirS            // shared by the cores in the sharing vector
	dirX            // exclusive at owner (E or M in its L1)
)

type l2Line struct {
	sharers coherence.CoreSet // full sharing vector (bit per core)
	owner   coherence.OwnerID // meaningful in dirX only
	dirty   bool              // data newer than memory
}

func (m l2Line) Owner() coherence.OwnerID { return m.owner }
func (m l2Line) Dirty() bool              { return m.dirty }

// L2 is one NUCA directory tile: the shared skeleton
// (coherence.DirBase) plus the full-map directory states and handlers.
type L2 struct {
	coherence.DirBase[l2Line]
}

// NewL2 builds directory tile `tile`.
func NewL2(tile int, sys config.System, net coherence.Network, mem coherence.Memory) *L2 {
	if sys.Cores > coherence.MaxCores {
		panic(fmt.Sprintf("mesi: full sharing vector limited to %d cores in this model", coherence.MaxCores))
	}
	t := &L2{}
	t.Init("mesi", tile, sys, net, mem, "inv-collect", dirX, dirV, l2Line{}, t.handle, t.recall)
	return t
}

func (t *L2) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgGetS:
		if w := t.OnRequest(now, m); w != nil {
			t.serveGetS(now, m, w)
		}
	case coherence.MsgGetX:
		if w := t.OnRequest(now, m); w != nil {
			t.serveGetX(now, m, w)
		}
	case coherence.MsgPutS:
		t.handlePutS(now, m)
	case coherence.MsgPutE, coherence.MsgPutM:
		if w := t.OnPut(now, m); w != nil {
			if m.Type == coherence.MsgPutM {
				w.Meta.dirty = true
			}
			t.Set(w, dirV)
		}
	case coherence.MsgAck:
		tx, w := t.OnAck(now, m)
		t.Set(w, dirX)
		w.Meta.owner = coherence.OwnerID(tx.Req.Requestor)
		w.Meta.sharers = coherence.CoreSet{}
		t.Retire(now, w, tx)
	case coherence.MsgInvAck:
		if tx, w := t.OnInvAck(now, m); tx != nil {
			// All sharers gone; grant exclusivity, stay busy until Ack.
			tx.Kind = coherence.TxAwaitAck
			w.Meta.sharers = coherence.CoreSet{}
			t.grantX(now, tx.Req, w, tx.IsUpgrade)
		}
	case coherence.MsgWBData:
		if tx, w := t.OnWBData(now, m); tx != nil {
			t.downgraded(now, m, w, tx)
		}
	default:
		t.Panicf(now, "unexpected message %s", m)
	}
}

// recall is the DirBase recall body: invalidate every sharer's copy.
func (t *L2) recall(now sim.Cycle, v *memsys.Way[l2Line]) int {
	if v.State != dirS {
		return 0
	}
	n := 0
	for c := 0; c < t.Cores; c++ {
		if v.Meta.sharers.Has(c) {
			t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: v.Tag}, nil)
			n++
		}
	}
	return n
}

func (t *L2) serveGetS(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.State {
	case dirV:
		// Grant Exclusive (the E optimization: no other sharers).
		t.Begin(w, coherence.TxAwaitAck, m, 0)
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataE, Dst: m.Requestor, Addr: m.Addr}, t.Cache.Block(w))
	case dirS:
		w.Meta.sharers.Add(int(m.Requestor))
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataS, Dst: m.Requestor, Addr: m.Addr}, t.Cache.Block(w))
	}
}

func (t *L2) serveGetX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.State {
	case dirV:
		t.Begin(w, coherence.TxAwaitAck, m, 0)
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataE, Dst: m.Requestor, Addr: m.Addr}, t.Cache.Block(w))
	case dirS:
		isUpgrade := w.Meta.sharers.Has(int(m.Requestor))
		others := 0
		for c := 0; c < t.Cores; c++ {
			if w.Meta.sharers.Has(c) && coherence.L1ID(c) != m.Requestor {
				t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: m.Addr}, nil)
				others++
			}
		}
		if others == 0 {
			t.Begin(w, coherence.TxAwaitAck, m, 0).IsUpgrade = isUpgrade
			t.grantX(now, m, w, isUpgrade)
		} else {
			t.Begin(w, coherence.TxInvs, m, others).IsUpgrade = isUpgrade
		}
	}
}

func (t *L2) grantX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line], isUpgrade bool) {
	if isUpgrade {
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgUpgAck, Dst: m.Requestor, Addr: m.Addr}, nil)
	} else {
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataE, Dst: m.Requestor, Addr: m.Addr}, t.Cache.Block(w))
	}
}

// downgraded completes a forwarded read: the previous owner's WBData
// (already in the line) leaves the line Shared by the requester and,
// unless it wrote back from its eviction buffer, the previous owner.
func (t *L2) downgraded(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line], tx *coherence.Tx) {
	if m.Dirty {
		w.Meta.dirty = true
	}
	prevOwner := w.Meta.owner.Node()
	t.Set(w, dirS)
	w.Meta.sharers = coherence.CoreSet{}
	w.Meta.sharers.Add(int(tx.Req.Requestor))
	if !m.NoCopy {
		w.Meta.sharers.Add(int(prevOwner))
	}
	t.Retire(now, w, tx)
}

func (t *L2) handlePutS(now sim.Cycle, m *coherence.Msg) {
	w := t.Cache.Peek(m.Addr)
	if w == nil || w.State != dirS {
		return
	}
	if w.Busy {
		// An invalidation round may be counting this sharer; let the
		// crossing InvAck from the (now absent) sharer settle it.
		t.Txs.EnqueueWaiting(m)
		return
	}
	w.Meta.sharers.Remove(int(m.Src))
	if w.Meta.sharers.Empty() {
		t.Set(w, dirV)
	}
}
