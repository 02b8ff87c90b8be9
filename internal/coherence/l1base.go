package coherence

import (
	"fmt"

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

// WriteTx is an L1's outstanding write or RMW miss. IssueWrite's caller
// fills WordAddr and the operation fields; the base stamps Addr and
// Issued. Upgrade is protocol scratch (MESI: the line was Shared locally
// when requested).
type WriteTx struct {
	Addr     uint64 // block address
	WordAddr uint64
	IsRMW    bool
	Val      uint64 // plain store value
	F        func(old uint64) (uint64, bool)
	StoreCb  func()
	RMWCb    func(uint64)
	Issued   sim.Cycle
	Upgrade  bool
}

// Apply returns the value the write leaves in a word that held old, and
// whether it writes at all (an RMW's F may decline, as a failed CAS does).
func (tx *WriteTx) Apply(old uint64) (uint64, bool) {
	if tx.IsRMW {
		return tx.F(old)
	}
	return tx.Val, true
}

// EvictEntry is one eviction-buffer slot: an owned line's data between
// its Put and the PutAck, from which forwards and recalls that cross the
// Put are served. TS/TSOwn are protocol scratch (TSO-CC line timestamp).
type EvictEntry struct {
	Data        []byte
	Dirty       bool
	TS          uint32
	TSOwn       bool
	Transferred bool // ownership passed to another core while in flight
}

// L1Base is the protocol-independent skeleton of a private-cache
// controller, generic over the protocol's line metadata M (the line's
// state lives in memsys.Way): the plumbing in l1Ctl plus the cache
// array — install with victim eviction through the protocol's evict
// body, the evict-fault check on hits, state writes reported to the
// probe (lines.Set), SnoopBlock and PrewarmStorage. A protocol's L1
// embeds it and supplies, at Init, the states in which it owns a line,
// its message handler and its evict body, and writes the
// Load/Store/RMW/Fence bodies.
type L1Base[M any] struct {
	l1Ctl
	lines[M]
	evictBody func(now sim.Cycle, w *memsys.Way[M])
	owned     uint32 // bit s set: a line in state s is this L1's alone (SnoopBlock)
}

// l1Ctl is the part of L1Base that does not depend on the line
// metadata: identity, the mesh send path, the engine's wake contract
// (the inbox), hit completion through engine completion events, the
// read/write transaction slots with their gating and completion, the
// eviction buffer, the statistics block and the probe surface. The hit
// path's helpers live here rather than on the generic type so that the
// compiler reports them inlinable when it builds this package (make
// inline-check).
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

	net    Network
	pool   *MsgPool
	handle func(now sim.Cycle, m *Msg)
	inbox  []*Msg
	waker  sim.Waker

	evictBuf  map[uint64]*EvictEntry
	evictFree []*EvictEntry
}

// Init wires the base for core `core` of sys, with an L1 array of sys's
// geometry. proto prefixes the component label ("mesi L1 3"). owned
// lists the states in which this L1 holds the only up-to-date copy of a
// line. Tick calls handle for every delivered message but PutAck (which
// releases the eviction buffer entry) and recycles the message
// afterwards, so handlers never retain one. evict is the
// protocol's eviction body: it hands a valid line back to the directory
// (Put messages, the eviction buffer) before the base drops it.
func (l *L1Base[M]) Init(proto string, core int, sys config.System, net Network, owned []uint8,
	handle func(now sim.Cycle, m *Msg), evict func(now sim.Cycle, w *memsys.Way[M])) {
	l.ID = L1ID(core)
	l.Cores = sys.Cores
	l.HitLat = sys.L1HitLat
	l.net = net
	l.pool = net.MsgPool()
	l.handle = handle
	l.evictBuf = make(map[uint64]*EvictEntry)
	l.ctlLabel = ctlLabel(fmt.Sprintf("%s L1 %d", proto, core))
	l.lines = lines[M]{Cache: memsys.NewCache[M](sys.L1Size, sys.L1Ways), probe: &l.Probe}
	l.evictBody = evict
	for _, s := range owned {
		l.owned |= 1 << s
	}
}

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

// evict hands the valid way w back to the directory through the
// protocol's evict body, then drops it.
func (l *L1Base[M]) evict(now sim.Cycle, w *memsys.Way[M]) {
	l.evictBody(now, w)
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
	if w := l.Cache.Peek(addr); w != nil && l.owned&(1<<w.State) != 0 {
		return l.Cache.Block(w), true
	}
	return nil, false
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

// Tick processes delivered messages.
func (l *l1Ctl) Tick(now sim.Cycle) {
	if len(l.inbox) == 0 {
		return
	}
	msgs := l.inbox
	l.inbox = l.inbox[:0]
	for _, m := range msgs {
		if m.Type == MsgPutAck {
			l.releaseEvict(m.Addr)
		} else {
			l.handle(now, m)
		}
		l.pool.Put(m) // L1 handlers never retain a delivered message
	}
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

// Busy reports whether any transaction is outstanding (completion check).
// A pending hit completion keeps its core, not the L1, from being done.
func (l *l1Ctl) Busy() bool {
	return l.Rd != nil || l.Wr != nil || len(l.evictBuf) > 0 || len(l.inbox) > 0
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

// IssueWrite occupies the write slot with tx (see WriteTx for the
// fields the caller fills) and sends the GetX to its home tile.
func (l *l1Ctl) IssueWrite(now sim.Cycle, tx WriteTx) {
	tx.Addr, tx.Issued = config.BlockAddr(tx.WordAddr), now
	l.wrBuf = tx
	l.Wr = &l.wrBuf
	l.Send(now, Msg{Type: MsgGetX, Dst: l.Home(tx.Addr), Addr: tx.Addr, Requestor: l.ID}, nil)
}

// PendingRead returns the read miss the data response m answers (one
// that matches none is a protocol bug) and whether m's data may be
// cached. Responses sent by the L2 itself are FIFO-ordered after any Inv
// the L2 issued, so they are always fresh; only owner-forwarded data can
// be overtaken by a later invalidation (the squash case).
func (l *l1Ctl) PendingRead(now sim.Cycle, m *Msg) (tx *ReadTx, install bool) {
	if l.Rd == nil || l.Rd.Addr != m.Addr {
		l.Panicf(now, "data response without read tx %s", m)
	}
	return l.Rd, !l.Rd.Squashed || m.Type != MsgDataOwner
}

// SquashRead marks an in-flight read of addr as overtaken by an
// invalidation (see PendingRead).
func (l *l1Ctl) SquashRead(addr uint64) {
	if l.Rd != nil && l.Rd.Addr == addr {
		l.Rd.Squashed = true
	}
}

// FinishRead retires the read miss: reports its latency, frees the slot,
// then completes the core's load (whose callback may issue the next).
func (l *l1Ctl) FinishRead(now sim.Cycle, val uint64) {
	tx := l.Rd
	if l.MissLatency != nil {
		l.MissLatency(true, now-tx.Issued)
	}
	l.Rd = nil
	tx.Cb(val)
}

// FinishWrite retires the write miss after the protocol applied it to
// the line: records RMW latency (Figure 8), reports the miss latency,
// frees the slot and completes the core's store, or its RMW with old.
func (l *l1Ctl) FinishWrite(now sim.Cycle, old uint64) {
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

// BufferEvict parks a copy of an evicted owned line until its PutAck,
// reusing entries from the free list; protocol scratch starts zero.
func (l *l1Ctl) BufferEvict(addr uint64, data []byte, dirty bool) *EvictEntry {
	var e *EvictEntry
	if n := len(l.evictFree); n > 0 {
		e = l.evictFree[n-1]
		l.evictFree = l.evictFree[:n-1]
	} else {
		e = &EvictEntry{}
	}
	*e = EvictEntry{Data: append(e.Data[:0], data...), Dirty: dirty}
	l.evictBuf[addr] = e
	return e
}

// ForwardEvicted returns the buffered entry for addr, or nil. Only a
// forward or recall that crossed the Put looks an evicted line up, and
// serving it hands ownership on, so the entry is marked transferred.
func (l *l1Ctl) ForwardEvicted(addr uint64) *EvictEntry {
	e := l.evictBuf[addr]
	if e != nil {
		e.Transferred = true
	}
	return e
}

// releaseEvict handles a PutAck: the buffered entry, if any, returns to
// the free list.
func (l *l1Ctl) releaseEvict(addr uint64) {
	if e, ok := l.evictBuf[addr]; ok {
		delete(l.evictBuf, addr)
		l.evictFree = append(l.evictFree, e)
	}
}

// Debug renders in-flight transaction state (deadlock diagnostics).
func (l *l1Ctl) Debug() string {
	s := fmt.Sprintf("L1 %d:", l.ID)
	if l.Rd != nil {
		s += fmt.Sprintf(" rd=%#x(squash=%v)", l.Rd.Addr, l.Rd.Squashed)
	}
	if l.Wr != nil {
		s += fmt.Sprintf(" wr=%#x(upg=%v rmw=%v issued=%d)", l.Wr.Addr, l.Wr.Upgrade, l.Wr.IsRMW, l.Wr.Issued)
	}
	for a, e := range l.evictBuf {
		s += fmt.Sprintf(" evict=%#x(dirty=%v xfer=%v)", a, e.Dirty, e.Transferred)
	}
	s += fmt.Sprintf(" inbox=%d", len(l.inbox))
	return s
}
