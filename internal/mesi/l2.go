package mesi

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L2 directory line states (invalid way = not present).
const (
	dirV = iota + 1 // valid at L2, no L1 copies
	dirS            // shared by the cores in the sharing vector
	dirX            // exclusive at owner (E or M in its L1)
)

type l2Line struct {
	sharers coherence.CoreSet // full sharing vector (bit per core)
	owner   coherence.OwnerID
	state   uint8
	dirty   bool // data newer than memory
}

// Transaction kinds (coherence.Tx.Kind).
const (
	txMemFetch = iota + 1
	txAwaitAck // exclusive grant sent; waiting for requester Ack
	txFwdGetS  // forwarded read; waiting for owner WBData
	txFwdGetX  // forwarded write; waiting for requester Ack
	txInvColl  // invalidations outstanding; counting InvAcks
	txEvict    // evicting this line; waiting for acks/WBData
)

var txKindNames = []string{
	txMemFetch: "mem-fetch",
	txAwaitAck: "await-ack",
	txFwdGetS:  "fwd-gets",
	txFwdGetX:  "fwd-getx",
	txInvColl:  "inv-collect",
	txEvict:    "evict",
}

// L2 is one NUCA directory tile: the shared skeleton
// (coherence.DirBase) plus the full-map directory states and handlers.
type L2 struct {
	coherence.DirBase
	cache *memsys.Cache[l2Line]
}

var _ coherence.Directory = (*L2)(nil)

// NewL2 builds directory tile `tile`.
func NewL2(tile, cores int, sizeBytes, ways int, accessLat sim.Cycle, net coherence.Network, mem coherence.Memory) *L2 {
	if cores > coherence.MaxCores {
		panic(fmt.Sprintf("mesi: full sharing vector limited to %d cores in this model", coherence.MaxCores))
	}
	t := &L2{cache: memsys.NewCache[l2Line](sizeBytes, ways)}
	t.Init("mesi", tile, cores, accessLat, net, mem, txKindNames, t.handle, t.filled)
	return t
}

func (t *L2) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgGetS, coherence.MsgGetX:
		t.handleRequest(now, m)
	case coherence.MsgPutS:
		t.handlePutS(now, m)
	case coherence.MsgPutE, coherence.MsgPutM:
		t.handlePut(now, m)
	case coherence.MsgAck:
		t.handleAck(now, m)
	case coherence.MsgInvAck:
		t.handleInvAck(now, m)
	case coherence.MsgWBData:
		t.handleWBData(now, m)
	default:
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: unexpected message %s", t.ID, now, m))
	}
}

func (t *L2) handleRequest(now sim.Cycle, m *coherence.Msg) {
	if t.Txs.BusyLine(m.Addr) {
		t.Txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil {
		t.startFetch(now, m)
		return
	}
	if m.Type == coherence.MsgGetS {
		t.serveGetS(now, m, w)
	} else {
		t.serveGetX(now, m, w)
	}
}

// startFetch allocates a line and fills it from memory.
func (t *L2) startFetch(now sim.Cycle, m *coherence.Msg) {
	v := t.cache.Victim(m.Addr)
	if v == nil {
		// Every way busy: retry next cycle.
		t.Txs.EnqueueRetry(m)
		return
	}
	if v.Valid {
		if t.cache.AnyBusy(m.Addr) {
			// Another transaction (possibly an eviction) is active in
			// this set; wait rather than evicting way after way.
			t.Txs.EnqueueRetry(m)
			return
		}
		if !t.evictLine(now, v) {
			// Asynchronous eviction started; retry the request after.
			t.Txs.EnqueueRetry(m)
			return
		}
	}
	t.cache.Install(v, m.Addr)
	v.Busy = true
	t.StartFetch(now, txMemFetch, m)
}

// filled is StartFetch's completion (see coherence.DirBase.Init).
func (t *L2) filled(addr uint64) []byte {
	way := t.cache.Peek(addr)
	if way == nil {
		return nil
	}
	t.Trans(addr, 0, dirV)
	way.Meta.state = dirV
	way.Busy = false
	return t.cache.Block(way)
}

// evictLine evicts v. It returns true if the eviction completed
// synchronously (line now invalid); false if an asynchronous recall /
// invalidation transaction was started.
func (t *L2) evictLine(now sim.Cycle, v *memsys.Way[l2Line]) bool {
	addr := v.Tag
	switch v.Meta.state {
	case dirV:
		if v.Meta.dirty {
			t.Mem.WriteBlock(addr, t.cache.Block(v))
		}
		t.Trans(addr, dirV, 0)
		t.cache.Invalidate(v)
		return true
	case dirS:
		n := 0
		for c := 0; c < t.Cores; c++ {
			if v.Meta.sharers.Has(c) {
				t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: addr}, nil)
				n++
			}
		}
		v.Busy = true
		t.Txs.New(addr, txEvict, nil, n)
		return false
	case dirX:
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: v.Meta.owner.Node(), Addr: addr}, nil)
		v.Busy = true
		t.Txs.New(addr, txEvict, nil, 1)
		return false
	}
	panic(fmt.Sprintf("mesi: L2 %d cycle %d: evictLine on invalid state %d for %#x", t.ID, now, v.Meta.state, v.Tag))
}

func (t *L2) serveGetS(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		// Grant Exclusive (the E optimization: no other sharers).
		w.Busy = true
		tx := t.Txs.New(m.Addr, txAwaitAck, m, 0)
		tx.NextOwner = m.Requestor
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataE, Dst: m.Requestor, Addr: m.Addr}, t.cache.Block(w))
	case dirS:
		w.Meta.sharers.Add(int(m.Requestor))
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataS, Dst: m.Requestor, Addr: m.Addr}, t.cache.Block(w))
	case dirX:
		if w.Meta.owner.Node() == m.Requestor {
			panic(fmt.Sprintf("mesi: L2 %d cycle %d: GetS from current owner %s", t.ID, now, m))
		}
		w.Busy = true
		t.Txs.New(m.Addr, txFwdGetS, m, 0)
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetS, Dst: w.Meta.owner.Node(), Addr: m.Addr, Requestor: m.Requestor}, nil)
	}
}

func (t *L2) serveGetX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		w.Busy = true
		tx := t.Txs.New(m.Addr, txAwaitAck, m, 0)
		tx.NextOwner = m.Requestor
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataE, Dst: m.Requestor, Addr: m.Addr}, t.cache.Block(w))
	case dirS:
		isUpgrade := w.Meta.sharers.Has(int(m.Requestor))
		others := 0
		for c := 0; c < t.Cores; c++ {
			if w.Meta.sharers.Has(c) && coherence.L1ID(c) != m.Requestor {
				t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: m.Addr}, nil)
				others++
			}
		}
		w.Busy = true
		if others == 0 {
			tx := t.Txs.New(m.Addr, txAwaitAck, m, 0)
			tx.NextOwner, tx.IsUpgrade = m.Requestor, isUpgrade
			t.grantX(now, m, w, isUpgrade)
		} else {
			tx := t.Txs.New(m.Addr, txInvColl, m, others)
			tx.NextOwner, tx.IsUpgrade = m.Requestor, isUpgrade
		}
	case dirX:
		if w.Meta.owner.Node() == m.Requestor {
			panic(fmt.Sprintf("mesi: L2 %d cycle %d: GetX from current owner %s", t.ID, now, m))
		}
		w.Busy = true
		tx := t.Txs.New(m.Addr, txFwdGetX, m, 0)
		tx.NextOwner = m.Requestor
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetX, Dst: w.Meta.owner.Node(), Addr: m.Addr, Requestor: m.Requestor}, nil)
	}
}

func (t *L2) grantX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line], isUpgrade bool) {
	if isUpgrade {
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgUpgAck, Dst: m.Requestor, Addr: m.Addr}, nil)
	} else {
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgDataE, Dst: m.Requestor, Addr: m.Addr}, t.cache.Block(w))
	}
}

func (t *L2) handleAck(now sim.Cycle, m *coherence.Msg) {
	tx := t.TxFor(now, m)
	if tx.Kind != txAwaitAck && tx.Kind != txFwdGetX {
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: stray Ack %s", t.ID, now, m))
	}
	w := t.cache.Peek(m.Addr)
	t.Trans(m.Addr, int(w.Meta.state), dirX)
	w.Meta.state = dirX
	w.Meta.owner = coherence.OwnerID(tx.NextOwner)
	w.Meta.sharers = coherence.CoreSet{}
	w.Busy = false
	t.Txs.Del(m.Addr, tx, true)
	t.Txs.DrainWaiting(now, m.Addr)
}

func (t *L2) handleInvAck(now sim.Cycle, m *coherence.Msg) {
	tx := t.TxFor(now, m)
	tx.AcksLeft--
	if tx.AcksLeft > 0 {
		return
	}
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txInvColl:
		// All sharers gone; grant exclusivity, stay busy until Ack.
		tx.Kind = txAwaitAck
		w.Meta.sharers = coherence.CoreSet{}
		t.grantX(now, tx.Req, w, tx.IsUpgrade)
	case txEvict:
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: InvAck in tx kind %d", t.ID, now, tx.Kind))
	}
}

func (t *L2) handleWBData(now sim.Cycle, m *coherence.Msg) {
	tx := t.TxFor(now, m)
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txFwdGetS:
		copy(t.cache.Block(w), m.Data)
		if m.Dirty {
			w.Meta.dirty = true
		}
		prevOwner := w.Meta.owner.Node()
		t.Trans(m.Addr, int(w.Meta.state), dirS)
		w.Meta.state = dirS
		w.Meta.sharers = coherence.CoreSet{}
		w.Meta.sharers.Add(int(tx.Req.Requestor))
		if !m.NoCopy {
			// Previous owner kept a downgraded Shared copy.
			w.Meta.sharers.Add(int(prevOwner))
		}
		w.Meta.owner = 0
		w.Busy = false
		t.Txs.Del(m.Addr, tx, true)
		t.Txs.DrainWaiting(now, m.Addr)
	case txEvict:
		if m.Dirty {
			copy(t.cache.Block(w), m.Data)
			w.Meta.dirty = true
		}
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: WBData in tx kind %d", t.ID, now, tx.Kind))
	}
}

func (t *L2) finishEvict(now sim.Cycle, w *memsys.Way[l2Line]) {
	addr := w.Tag
	if w.Meta.dirty {
		t.Mem.WriteBlock(addr, t.cache.Block(w))
	}
	tx, _ := t.Txs.Get(addr)
	t.Txs.Del(addr, tx, false)
	t.Trans(addr, int(w.Meta.state), 0)
	t.cache.Invalidate(w)
	// Requests that queued behind the eviction now miss and refetch.
	t.Txs.DrainWaiting(now, addr)
}

func (t *L2) handlePutS(now sim.Cycle, m *coherence.Msg) {
	w := t.cache.Peek(m.Addr)
	if w == nil || w.Meta.state != dirS {
		return
	}
	if t.Txs.BusyLine(m.Addr) {
		// An invalidation round may be counting this sharer; let the
		// crossing InvAck from the (now absent) sharer settle it.
		t.Txs.EnqueueWaiting(m)
		return
	}
	w.Meta.sharers.Remove(int(m.Src))
	if w.Meta.sharers.Empty() {
		t.Trans(m.Addr, dirS, dirV)
		w.Meta.state = dirV
	}
}

func (t *L2) handlePut(now sim.Cycle, m *coherence.Msg) {
	if t.Txs.BusyLine(m.Addr) {
		t.Txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil || w.Meta.state != dirX || w.Meta.owner.Node() != m.Src {
		// Stale writeback: ownership already moved on. Ack and drop.
		t.SendPutAck(now, m.Src, m.Addr)
		return
	}
	if m.Type == coherence.MsgPutM {
		copy(t.cache.Block(w), m.Data)
		w.Meta.dirty = true
	}
	t.Trans(m.Addr, dirX, dirV)
	w.Meta.state = dirV
	w.Meta.owner = 0
	t.SendPutAck(now, m.Src, m.Addr)
}

// PrewarmStorage implements coherence.Controller.
func (t *L2) PrewarmStorage() { t.cache.Prewarm() }
