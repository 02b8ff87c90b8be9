package coherence

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// ReadTx is an L1's outstanding read miss.
type ReadTx struct {
	Addr     uint64 // block address
	WordAddr uint64
	Cb       func(uint64)
	Issued   sim.Cycle
	Squashed bool // an Inv for Addr arrived while the miss was in flight
}

// WriteTx is an L1's outstanding write or RMW miss.
type WriteTx struct {
	Addr     uint64 // block address
	WordAddr uint64
	IsRMW    bool
	Val      uint64 // plain store value
	F        func(old uint64) (uint64, bool)
	StoreCb  func()
	RMWCb    func(uint64)
	Issued   sim.Cycle
}

// EvictEntry is one eviction-buffer slot: an owned line's data and
// metadata between its Put and the PutAck, from which forwards and
// recalls that cross the Put are served.
type EvictEntry[M any] struct {
	Data        []byte
	Meta        M
	Dirty       bool
	Transferred bool // ownership passed to another core while in flight
}

// L1Spec is what a protocol's L1 hands L1Base.Init: its line states and
// the hooks where it departs from the shared skeleton. Every hook but
// Downgrade may be nil; a nil hook does nothing, except as Handle says.
type L1Spec[M any] struct {
	// Shared, SharedRO and Excl are the states a read fill installs its
	// line in: DataS and DataOwner, DataSRO, DataE. Shared 0 means Shared
	// data is not cached, only read; SharedRO 0 means the protocol has no
	// such state, and a DataSRO goes to Handle. Excl and Mod are the
	// states this L1 owns a line in, clean and dirty; every write leaves
	// its line in Mod.
	Shared, SharedRO, Excl, Mod uint8

	// Handle receives every delivered message the base does not serve
	// (nil: any such message is a protocol bug).
	Handle func(now sim.Cycle, m *Msg)
	// Evict hands a valid line in a state other than Excl / Mod back to
	// the directory before the base drops it (nil: it goes silently).
	Evict func(now sim.Cycle, w *memsys.Way[M])
	// Stamp adds the protocol's fields, from the line's metadata, to the
	// data an owner sends: DataOwner, WBData, PutM.
	Stamp func(m *Msg, meta *M)
	// Downgrade leaves an owned line in the protocol's shared state once
	// a forwarded GetS has been answered.
	Downgrade func(w *memsys.Way[M])
	// OnData sees every data response before its miss completes.
	OnData func(m *Msg)
	// Filled sets the metadata of the line a read fill m installed; w is
	// already in its fill state.
	Filled func(w *memsys.Way[M], m *Msg)
	// Wrote follows every write that changed w's data, w already in Mod:
	// a hit's with ack nil, a miss's with its grant's Ack, still unsent.
	Wrote func(now sim.Cycle, w *memsys.Way[M], ack *Msg)
	// WriteMiss sees every write miss before its GetX leaves, with the
	// line's way if the L1 holds a copy (nil otherwise).
	WriteMiss func(w *memsys.Way[M])
}

// L1Base is the protocol-independent skeleton of a private-cache
// controller, generic over the protocol's line metadata M (the line's
// state lives in memsys.Way). It holds the plumbing in l1Ctl and the
// cache array: install with victim eviction, the evict-fault check on
// hits, state writes reported to the probe (lines.Set) and SnoopBlock.
// It serves the requester's side of the protocol: every
// read fill, every write miss's completion and its Ack, and the Store
// and RMW ports with their hits on owned lines. It serves the exclusive
// owner's side: an owned line's eviction (the eviction buffer, PutE /
// PutM) and the forwarded GetS / GetX and recall Inv it answers, from
// the line or from the buffer when the request crossed its Put. A
// protocol's L1 embeds it, supplies its states and hooks at Init
// (L1Spec), and writes the Load and Fence bodies.
type L1Base[M any] struct {
	l1Ctl
	lines[M]
	p L1Spec[M]

	evictBuf  map[uint64]*EvictEntry[M]
	evictFree []*EvictEntry[M]
}

// l1Ctl is the part of L1Base that does not depend on the line
// metadata: identity, the mesh send path, the engine's wake contract
// (the inbox), hit completion through engine completion events, the
// read/write transaction slots with their gating and completion, the
// statistics block and the probe surface. The hit path's helpers live
// here rather than on the generic type so that the compiler reports
// them inlinable when it builds this package (make inline-check).
type l1Ctl struct {
	ID     NodeID
	Cores  int
	HitLat sim.Cycle

	Probe
	ctlLabel
	Stats L1Stats

	// Rd/Wr point at rdBuf/wrBuf when active: an L1 serves one read and
	// one write transaction at a time, so the records are preallocated
	// scratch, not per-miss allocations.
	Rd    *ReadTx
	Wr    *WriteTx
	rdBuf ReadTx
	wrBuf WriteTx

	net   Network
	pool  *MsgPool
	inbox []*Msg
	waker sim.Waker
}

// Init wires the base for core `core` of sys, with an L1 array of sys's
// geometry, and the protocol's states and hooks. proto prefixes the
// component label ("mesi L1 3"). Tick serves the responses to this L1's
// misses, PutAcks, forwarded GetS / GetX and Invs itself and hands every
// other delivered message to spec.Handle, recycling each message
// afterwards, so handlers never retain one.
func (l *L1Base[M]) Init(proto string, core int, sys config.System, net Network, spec L1Spec[M]) {
	l.ID, l.Cores, l.HitLat = L1ID(core), sys.Cores, sys.L1HitLat
	l.net, l.pool = net, net.MsgPool()
	l.evictBuf = make(map[uint64]*EvictEntry[M])
	l.ctlLabel = ctlLabel(fmt.Sprintf("%s L1 %d", proto, core))
	l.lines = lines[M]{Cache: memsys.NewCache[M](sys.L1Size, sys.L1Ways), probe: &l.Probe}
	l.p = spec
	if l.p.Handle == nil {
		l.p.Handle = l.unexpected
	}
}

// owns reports whether w's line is this L1's alone (E or M).
func (l *L1Base[M]) owns(w *memsys.Way[M]) bool { return w.State == l.p.Excl || w.State == l.p.Mod }

// SelfEvicts reports whether the evict fault profile (Probe.EvictFault)
// turns a core access that hit w into a forced self-eviction; a way
// pinned Busy is exempt. If so, w has been evicted through the normal
// victim machinery and the access takes the miss path.
func (l *L1Base[M]) SelfEvicts(now sim.Cycle, w *memsys.Way[M]) bool {
	return l.EvictFault != nil && l.forceEvict(now, w)
}

func (l *L1Base[M]) forceEvict(now sim.Cycle, w *memsys.Way[M]) bool {
	if w.Busy || !l.EvictFault() {
		return false
	}
	l.evict(now, w)
	return true
}

// evict hands the valid way w back to the directory, then drops it. An
// owned line is parked in the eviction buffer until its PutAck and
// announced with a PutE, or a PutM carrying its data; a line in any
// other state goes through the protocol's evict body.
func (l *L1Base[M]) evict(now sim.Cycle, w *memsys.Way[M]) {
	switch {
	case l.owns(w):
		dirty := w.State == l.p.Mod
		l.bufferEvict(w, dirty)
		if dirty {
			l.sendStamped(now, Msg{Type: MsgPutM, Dst: l.Home(w.Tag), Addr: w.Tag, Dirty: true}, l.Cache.Block(w), &w.Meta)
		} else {
			l.Send(now, Msg{Type: MsgPutE, Dst: l.Home(w.Tag), Addr: w.Tag}, nil)
		}
	case l.p.Evict != nil:
		l.p.Evict(now, w)
	}
	l.Drop(w)
}

// Install places data for addr and returns its way, whose State is
// still the line's state before the fill (0 for a fresh line): a line
// already present is refilled in place; otherwise the set's victim is
// evicted through the protocol's evict body and claimed. The caller
// sets the post-fill state.
func (l *L1Base[M]) Install(now sim.Cycle, addr uint64, data []byte) *memsys.Way[M] {
	w := l.Cache.Peek(addr)
	if w == nil {
		if w = l.Cache.Victim(addr); w == nil {
			l.Panicf(now, "no victim for %#x", addr)
		}
		if w.Valid {
			l.evict(now, w)
		}
		l.Cache.Install(w, addr)
	}
	copy(l.Cache.Block(w), data)
	return w
}

// SnoopBlock implements Controller: an L1 is authoritative for a line
// only in the states it owns it in.
func (l *L1Base[M]) SnoopBlock(addr uint64) ([]byte, bool) {
	if w := l.Cache.Peek(addr); w != nil && l.owns(w) {
		return l.Cache.Block(w), true
	}
	return nil, false
}

// Tick processes delivered messages.
func (l *L1Base[M]) Tick(now sim.Cycle) {
	if len(l.inbox) == 0 {
		return
	}
	msgs := l.inbox
	l.inbox = l.inbox[:0]
	for _, m := range msgs {
		switch m.Type {
		case MsgPutAck:
			l.releaseEvict(m.Addr)
		case MsgFwdGetS, MsgFwdGetX:
			w := l.Cache.Peek(m.Addr)
			if w != nil && !l.owns(w) {
				w = nil
			}
			if !l.serveOwner(now, m, w) {
				l.Panicf(now, "%s for absent line %s", m.Type, m)
			}
		case MsgInv:
			l.inv(now, m)
		case MsgDataE, MsgDataS, MsgDataOwner, MsgDataSRO, MsgUpgAck:
			l.respond(now, m)
		default:
			l.p.Handle(now, m)
		}
		l.pool.Put(m) // L1 handlers never retain a delivered message
	}
}

// Store implements CorePort: a store that hits an owned line completes
// here, leaving the line dirty; any other is a write miss.
func (l *L1Base[M]) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	if l.StoreBlocked(addr) {
		return false
	}
	if w := l.writeHit(now, addr); w != nil {
		l.write(now, w, addr, val, nil)
		l.Stats.WriteHitPrivate.Inc()
		l.CompleteNext(now, cb)
		return true
	}
	l.issueWrite(now, WriteTx{WordAddr: addr, Val: val, StoreCb: cb})
	return true
}

// RMW implements CorePort: an RMW that hits an owned line completes
// here, leaving the line dirty if f writes; any other is a write miss.
func (l *L1Base[M]) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	if l.StoreBlocked(addr) {
		return false
	}
	if w := l.writeHit(now, addr); w != nil {
		old := memsys.GetWord(l.Cache.Block(w), addr)
		if nv, ok := f(old); ok {
			l.write(now, w, addr, nv, nil)
		}
		l.Stats.WriteHitPrivate.Inc()
		l.Stats.RMWLat.Observe(int64(l.HitLat))
		l.CompleteVal(now, cb, old)
		return true
	}
	l.issueWrite(now, WriteTx{WordAddr: addr, IsRMW: true, F: f, RMWCb: cb})
	return true
}

// writeHit returns addr's way if a write completes on it: the line is
// owned here and the evict fault does not take it.
func (l *L1Base[M]) writeHit(now sim.Cycle, addr uint64) *memsys.Way[M] {
	if w := l.Cache.Lookup(addr); w != nil && l.owns(w) && !l.SelfEvicts(now, w) {
		return w
	}
	return nil
}

// write puts v in the word at addr of the owned line w, which goes
// dirty, and shows the protocol (Wrote), with the miss's Ack if any.
func (l *L1Base[M]) write(now sim.Cycle, w *memsys.Way[M], addr, v uint64, ack *Msg) {
	memsys.PutWord(l.Cache.Block(w), addr, v)
	l.Set(w, l.p.Mod)
	if l.p.Wrote != nil {
		l.p.Wrote(now, w, ack)
	}
}

// issueWrite shows the protocol the write miss (WriteMiss), occupies the
// write slot with tx — whose WordAddr and operation fields the caller
// fills — and sends the GetX to its home tile.
func (l *L1Base[M]) issueWrite(now sim.Cycle, tx WriteTx) {
	tx.Addr, tx.Issued = config.BlockAddr(tx.WordAddr), now
	if l.p.WriteMiss != nil {
		l.p.WriteMiss(l.Cache.Peek(tx.Addr))
	}
	l.wrBuf = tx
	l.Wr = &l.wrBuf
	l.Send(now, Msg{Type: MsgGetX, Dst: l.Home(tx.Addr), Addr: tx.Addr, Requestor: l.ID}, nil)
}

// respond completes the miss a response answers: a grant — DataE,
// DataOwner or UpgAck — for the block in the write slot completes the
// write, any other response the read. Data responses are counted and
// shown to the protocol (OnData) first. A protocol without a SharedRO
// state handles a DataSRO itself.
func (l *L1Base[M]) respond(now sim.Cycle, m *Msg) {
	if m.Type == MsgDataSRO && l.p.SharedRO == 0 {
		l.p.Handle(now, m)
		return
	}
	if m.Type != MsgUpgAck {
		l.Stats.DataResponses.Inc()
		if l.p.OnData != nil {
			l.p.OnData(m)
		}
	}
	if m.Type != MsgDataS && m.Type != MsgDataSRO && l.WritePending(m.Addr) {
		l.completeWrite(now, m)
	} else {
		l.completeRead(now, m)
	}
}

// completeRead installs the read miss's fill in the state its type maps
// to (see L1Spec), acknowledges an exclusive grant, then completes the
// core's load. It installs nothing in state 0, nor owner-forwarded data
// an Inv overtook (the L2's own data is FIFO-ordered after any Inv it
// issued, so it is always fresh).
func (l *L1Base[M]) completeRead(now sim.Cycle, m *Msg) {
	state := l.p.Shared
	switch m.Type {
	case MsgUpgAck:
		l.Panicf(now, "unexpected UpgAck %s", m)
	case MsgDataE:
		state = l.p.Excl
	case MsgDataSRO:
		state = l.p.SharedRO
	}
	tx := l.Rd
	if tx == nil || tx.Addr != m.Addr {
		l.Panicf(now, "data response without read tx %s", m)
	}
	if state != 0 && !(tx.Squashed && m.Type == MsgDataOwner) {
		w := l.Install(now, m.Addr, m.Data)
		l.Set(w, state)
		if l.p.Filled != nil {
			l.p.Filled(w, m)
		}
	}
	if m.Type == MsgDataE {
		l.Send(now, Msg{Type: MsgAck, Dst: l.Home(m.Addr), Addr: m.Addr}, nil)
	}
	l.finishRead(now, memsys.GetWord(m.Data, tx.WordAddr))
}

// Pin keeps the valid way w from eviction, forced self-eviction
// included, until the write miss in flight completes, which unpins it
// (completeWrite).
func (l *L1Base[M]) Pin(w *memsys.Way[M]) { w.Busy = true }

// completeWrite applies the write miss once the line is exclusive: to
// the fresh data, (re)installed, or — for an UpgAck, which carries none —
// to the Shared copy the miss pinned. The line goes dirty and unpinned;
// the grant's Ack, which releases the directory, leaves before the
// core's store or RMW completes.
func (l *L1Base[M]) completeWrite(now sim.Cycle, m *Msg) {
	tx := l.Wr
	w := l.Cache.Peek(tx.Addr)
	if m.Type != MsgUpgAck {
		w = l.Install(now, tx.Addr, m.Data)
	} else if w == nil || w.State != l.p.Shared {
		l.Panicf(now, "UpgAck without Shared line %s", m)
	}
	w.Busy = false
	l.Set(w, l.p.Mod)
	old := memsys.GetWord(l.Cache.Block(w), tx.WordAddr)
	nv, ok := tx.Val, true
	if tx.IsRMW {
		nv, ok = tx.F(old) // may decline, as a failed CAS does
	}
	// Wrote stamps the pooled copy: handing it a template's address
	// would move every template to the heap.
	ack := l.pool.NewFrom(Msg{Type: MsgAck, Dst: l.Home(tx.Addr), Addr: tx.Addr}, nil)
	if ok {
		l.write(now, w, tx.WordAddr, nv, ack)
	}
	ack.Src = l.ID
	l.net.Send(now, ack)
	l.finishWrite(now, old)
}

// inv handles an invalidation: a read of the line in flight is
// squashed (see completeRead); a recall of an owned line (the directory
// evicting it) is answered with a writeback, from the line or from the
// eviction buffer; any other copy is dropped and the Inv acknowledged,
// as is one for a line this L1 no longer holds.
func (l *L1Base[M]) inv(now sim.Cycle, m *Msg) {
	l.Stats.InvalidationsReceived.Inc()
	if l.Rd != nil && l.Rd.Addr == m.Addr {
		l.Rd.Squashed = true
	}
	w := l.Cache.Peek(m.Addr)
	if w != nil && !l.owns(w) {
		l.Drop(w)
	} else if l.serveOwner(now, m, w) {
		return
	}
	l.Send(now, Msg{Type: MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
}

// serveOwner answers a forwarded GetS / GetX or a recall Inv as the
// line's exclusive owner: from the owned way w or, with w nil, from the
// eviction buffer entry of the Put the request crossed. The requester
// of a forward gets the data; a GetS's data also goes back to the home
// tile, and the owner keeps a Shared copy (downgrade) unless it
// answers from the buffer; a GetX takes the line. A recall is answered
// with a writeback to the recalling tile. It reports false if there is
// no copy to serve.
func (l *L1Base[M]) serveOwner(now sim.Cycle, m *Msg, w *memsys.Way[M]) bool {
	var data []byte
	var meta *M
	var dirty bool
	if w != nil {
		data, meta, dirty = l.Cache.Block(w), &w.Meta, w.State == l.p.Mod
	} else if e := l.evictBuf[m.Addr]; e != nil {
		e.Transferred = true
		data, meta, dirty = e.Data, &e.Meta, e.Dirty
	} else {
		return false
	}
	if m.Type == MsgInv {
		l.sendStamped(now, Msg{Type: MsgWBData, Dst: m.Src, Addr: m.Addr, Dirty: dirty}, data, meta)
	} else {
		l.sendStamped(now, Msg{Type: MsgDataOwner, Dst: m.Requestor, Addr: m.Addr, Owner: l.ID, Dirty: dirty}, data, meta)
	}
	if m.Type == MsgFwdGetS {
		l.sendStamped(now, Msg{Type: MsgWBData, Dst: l.Home(m.Addr), Addr: m.Addr, Dirty: dirty, NoCopy: w == nil}, data, meta)
	}
	if w != nil && m.Type == MsgFwdGetS {
		l.p.Downgrade(w)
	} else if w != nil {
		l.Drop(w)
	}
	return true
}

// sendStamped sends an owner's data message, stamped with the
// protocol's fields from the line's metadata. The stamp writes the
// pooled copy: handing it the template's address would move every
// template to the heap.
func (l *L1Base[M]) sendStamped(now sim.Cycle, tmpl Msg, data []byte, meta *M) {
	m := l.pool.NewFrom(tmpl, data)
	if l.p.Stamp != nil {
		l.p.Stamp(m, meta)
	}
	m.Src = l.ID
	l.net.Send(now, m)
}

// bufferEvict parks a copy of the evicted owned line w until its
// PutAck, reusing entries from the free list.
func (l *L1Base[M]) bufferEvict(w *memsys.Way[M], dirty bool) {
	var e *EvictEntry[M]
	if n := len(l.evictFree); n > 0 {
		e = l.evictFree[n-1]
		l.evictFree = l.evictFree[:n-1]
	} else {
		e = &EvictEntry[M]{}
	}
	*e = EvictEntry[M]{Data: append(e.Data[:0], l.Cache.Block(w)...), Meta: w.Meta, Dirty: dirty}
	l.evictBuf[w.Tag] = e
}

// releaseEvict handles a PutAck: the buffered entry, if any, returns to
// the free list.
func (l *L1Base[M]) releaseEvict(addr uint64) {
	if e, ok := l.evictBuf[addr]; ok {
		delete(l.evictBuf, addr)
		l.evictFree = append(l.evictFree, e)
	}
}

// Busy reports whether any transaction is outstanding (completion check).
// A pending hit completion keeps its core, not the L1, from being done.
func (l *L1Base[M]) Busy() bool {
	return l.Rd != nil || l.Wr != nil || len(l.evictBuf) > 0 || len(l.inbox) > 0
}

// Debug renders in-flight transaction state (deadlock diagnostics).
func (l *L1Base[M]) Debug() string {
	s := fmt.Sprintf("L1 %d:", l.ID)
	if l.Rd != nil {
		s += fmt.Sprintf(" rd=%#x(squash=%v)", l.Rd.Addr, l.Rd.Squashed)
	}
	if l.Wr != nil {
		s += fmt.Sprintf(" wr=%#x(rmw=%v issued=%d)", l.Wr.Addr, l.Wr.IsRMW, l.Wr.Issued)
	}
	addrs := make([]uint64, 0, len(l.evictBuf))
	for a := range l.evictBuf {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs) // address order, so the report is deterministic
	for _, a := range addrs {
		e := l.evictBuf[a]
		s += fmt.Sprintf(" evict=%#x(dirty=%v xfer=%v)", a, e.Dirty, e.Transferred)
	}
	s += fmt.Sprintf(" inbox=%d", len(l.inbox))
	return s
}

// Home returns the directory tile addr is interleaved onto.
func (l *l1Ctl) Home(addr uint64) NodeID {
	return L2ID(HomeTile(addr, l.Cores), l.Cores)
}

// Send stamps a pooled copy of tmpl (payload taken from data, not
// tmpl.Data) and injects it into the mesh.
func (l *l1Ctl) Send(now sim.Cycle, tmpl Msg, data []byte) {
	m := l.pool.NewFrom(tmpl, data)
	m.Src = l.ID
	l.net.Send(now, m)
}

// BindWaker implements sim.WakeSink: the handle marks this L1 due when a
// mesh delivery lands in its inbox and files its hit completions.
func (l *l1Ctl) BindWaker(w sim.Waker) { l.waker = w }

// CompleteVal completes a hit the core issued at now: cb(v) fires
// HitLat cycles later as an engine completion event, so the hit costs
// this L1 no tick. The L1 has already applied the access; the event
// only hands the core its value.
func (l *l1Ctl) CompleteVal(now sim.Cycle, cb func(uint64), v uint64) {
	l.waker.CompleteAt(now+l.HitLat, cb, v)
}

// CompleteNext is CompleteVal for the core's store-hit and fence
// callbacks, which fire on the next cycle.
func (l *l1Ctl) CompleteNext(now sim.Cycle, cb func()) {
	l.waker.DoneAt(now+1, cb)
}

// Deliver implements mesh.Endpoint.
func (l *l1Ctl) Deliver(now sim.Cycle, m *Msg) {
	l.inbox = append(l.inbox, m)
	l.waker.Wake()
}

// NextWake implements sim.WakeHinter: next cycle if messages are
// queued. Outstanding transactions need no wake of their own — they
// advance only when a message arrives — and a pending hit completion is
// the engine's, not this L1's.
func (l *l1Ctl) NextWake(now sim.Cycle) sim.Cycle {
	if len(l.inbox) > 0 {
		return now + 1
	}
	return sim.WakeNever
}

// L1Stats implements L1Like.
func (l *l1Ctl) L1Stats() *L1Stats { return &l.Stats }

// LoadBlocked reports whether a load of the word at addr must be
// declined this cycle: the read slot is taken, or a write to the same
// block is in flight (same-block read/write transactions are
// serialized).
func (l *l1Ctl) LoadBlocked(addr uint64) bool {
	return l.Rd != nil || l.WritePending(config.BlockAddr(addr))
}

// StoreBlocked is LoadBlocked for stores and RMWs.
func (l *l1Ctl) StoreBlocked(addr uint64) bool {
	return l.Wr != nil || (l.Rd != nil && l.Rd.Addr == config.BlockAddr(addr))
}

// WritePending reports whether the write slot holds a miss for blk.
func (l *l1Ctl) WritePending(blk uint64) bool {
	return l.Wr != nil && l.Wr.Addr == blk
}

// IssueRead occupies the read slot with a miss on the word at addr and
// sends the GetS to its home tile.
func (l *l1Ctl) IssueRead(now sim.Cycle, addr uint64, cb func(uint64)) {
	blk := config.BlockAddr(addr)
	l.rdBuf = ReadTx{Addr: blk, WordAddr: addr, Cb: cb, Issued: now}
	l.Rd = &l.rdBuf
	l.Send(now, Msg{Type: MsgGetS, Dst: l.Home(blk), Addr: blk, Requestor: l.ID}, nil)
}

// unexpected is the message handler of a protocol that has none.
func (l *l1Ctl) unexpected(now sim.Cycle, m *Msg) { l.Panicf(now, "unexpected message %s", m) }

// finishRead retires the read miss: reports its latency, frees the slot,
// then completes the core's load (whose callback may issue the next).
func (l *l1Ctl) finishRead(now sim.Cycle, val uint64) {
	tx := l.Rd
	if l.MissLatency != nil {
		l.MissLatency(true, now-tx.Issued)
	}
	l.Rd = nil
	tx.Cb(val)
}

// finishWrite retires the write miss once it is applied to the line:
// records RMW latency (Figure 8), reports the miss latency, frees the
// slot and completes the core's store, or its RMW with old.
func (l *l1Ctl) finishWrite(now sim.Cycle, old uint64) {
	tx := l.Wr
	if tx.IsRMW {
		l.Stats.RMWLat.Observe(int64(now - tx.Issued))
	}
	if l.MissLatency != nil {
		l.MissLatency(false, now-tx.Issued)
	}
	l.Wr = nil
	if tx.IsRMW {
		tx.RMWCb(old)
	} else {
		tx.StoreCb()
	}
}
