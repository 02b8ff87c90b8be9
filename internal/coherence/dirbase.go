package coherence

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Directory transaction kinds (Tx.Kind), shared by every protocol's
// tile. TxInvs is the one kind whose timeline name the protocol picks
// (MESI "inv-collect", TSO-CC "sro-inv").
const (
	TxMemFetch = iota + 1 // line being filled from memory
	TxAwaitAck            // exclusive grant sent; waiting for the requester's Ack
	TxFwdGetS             // read forwarded to the owner; waiting for its WBData
	TxFwdGetX             // write forwarded to the owner; waiting for the requester's Ack
	TxInvs                // a write's invalidations out; counting InvAcks
	TxEvict               // evicting the line; waiting for the recall's InvAcks / WBData
)

var txKindNames = [...]string{
	TxMemFetch: "mem-fetch",
	TxAwaitAck: "await-ack",
	TxFwdGetS:  "fwd-gets",
	TxFwdGetX:  "fwd-getx",
	TxEvict:    "evict",
}

// dirLine is what DirBase reads of a protocol's directory line
// metadata.
type dirLine interface {
	// Owner is the L1 holding the line while it is in the protocol's
	// exclusive state.
	Owner() OwnerID
	// Dirty reports whether the line's data is newer than memory.
	Dirty() bool
}

// DirBase is the protocol-independent skeleton of a directory (L2)
// tile, generic over the protocol's line metadata M (the line's state
// lives in memsys.Way): identity, the timer heap and transaction table
// with the engine's wake contract over them, the delayed send path that
// keeps per-destination FIFO order, PutAck scheduling, the cache array
// with its state setter, and the message front ends every directory
// shares — request admission with the memory fetch, victim eviction
// and the forward of a request for an L1-owned line to its owner, the
// owner's Put, Ack, the InvAck countdown and WBData — plus SnoopBlock,
// SnoopOwner and the probe surface. A protocol's tile
// embeds it, binds its handler and recall body at Init and serves what
// the front ends hand it.
type DirBase[M dirLine] struct {
	ID        NodeID
	Tile      int
	Cores     int
	AccessLat sim.Cycle
	Mem       Memory

	Timers Timers
	// Txs owns the transaction lifecycle and message-ownership
	// discipline (see TxTable).
	Txs TxTable
	Probe
	ctlLabel
	lines[M]

	net      Network
	pool     *MsgPool
	sendFn   func(now sim.Cycle, m *Msg) // bound once; see SendAfterAccess
	fillFn   func(now sim.Cycle, m *Msg) // bound once; see OnRequest
	invKind  string
	counters []*stats.Counter // protocol-specific, see AddCounter
	prefix   string           // metrics-series prefix, e.g. "tsocc.l2.3"

	recall          func(now sim.Cycle, w *memsys.Way[M]) int
	excl, fillState uint8
	fillMeta        M
}

// Init wires the base for tile `tile` of sys, with an L2 array of sys's
// tile geometry. proto prefixes the component label ("mesi L2 tile 3")
// and counter names ("mesi.l2.3.tx_news"); invKind names the protocol's
// TxInvs transactions in timeline spans. excl is the state in which an
// L1 owns the line (the tile's copy may be stale); a line filled from
// memory enters state fill with metadata fillMeta. handle is the
// handler the table dispatches every owned message through. recall
// starts evicting a valid line in any state but excl (the base recalls
// an owned line itself): it invalidates the L1 copies and returns how
// many acknowledgements the eviction waits for (0: none, the line goes
// now).
func (d *DirBase[M]) Init(proto string, tile int, sys config.System, net Network, mem Memory, invKind string,
	excl, fill uint8, fillMeta M, handle func(now sim.Cycle, m *Msg), recall func(now sim.Cycle, w *memsys.Way[M]) int) {
	d.ID = L2ID(tile, sys.Cores)
	d.Tile = tile
	d.Cores = sys.Cores
	d.AccessLat = sys.L2AccessLat
	d.Mem = mem
	d.net = net
	d.pool = net.MsgPool()
	d.sendFn, d.fillFn = d.sendMsg, d.fill
	d.invKind = invKind
	d.ctlLabel = ctlLabel(fmt.Sprintf("%s L2 tile %d", proto, tile))
	d.prefix = fmt.Sprintf("%s.l2.%d", proto, tile)
	d.lines = lines[M]{Cache: memsys.NewCache[M](sys.L2TileSize, sys.L2Ways), probe: &d.Probe}
	d.recall = recall
	d.excl, d.fillState, d.fillMeta = excl, fill, fillMeta
	d.Txs.Init(d.pool, handle)
	d.Txs.SetLabel(d.prefix)
}

// AddCounter names a protocol-specific tile counter under this tile's
// series prefix and lists it in ObsCounters after the table's own.
func (d *DirBase[M]) AddCounter(c *stats.Counter, suffix string) {
	c.SetName(d.prefix + suffix)
	d.counters = append(d.counters, c)
}

func (d *DirBase[M]) sendMsg(now sim.Cycle, m *Msg) {
	m.Src = d.ID
	d.net.Send(now, m)
}

// Send stamps a pooled copy of tmpl and injects it this cycle. Only
// messages that cannot race a delayed one to the same L1 may bypass
// SendAfterAccess (timestamp reset broadcasts).
func (d *DirBase[M]) Send(now sim.Cycle, tmpl Msg, data []byte) {
	d.sendMsg(now, d.pool.NewFrom(tmpl, data))
}

// SendAfterAccess sends after the tile access latency. Every
// directory-originated message to an L1 must leave through the same
// delay so that per-destination FIFO order matches processing order —
// an invalidation must never overtake an earlier data response.
func (d *DirBase[M]) SendAfterAccess(now sim.Cycle, tmpl Msg, data []byte) {
	d.Timers.AtMsg(now+d.AccessLat, d.sendFn, d.pool.NewFrom(tmpl, data))
}

// SendPutAck schedules an eviction acknowledgement. The victim fault
// profile (Probe.AckDelay) adds extra cycles here, deliberately outside
// the shared SendAfterAccess delay so a late PutAck can be overtaken by
// later directory traffic to the same L1: its handler only clears an
// evict-buffer entry, so the reorder is protocol-legal and is exactly
// the victim/writeback race the profile injects.
func (d *DirBase[M]) SendPutAck(now sim.Cycle, dst NodeID, addr uint64) {
	extra := sim.Cycle(0)
	if d.AckDelay != nil {
		extra = d.AckDelay()
	}
	d.Timers.AtMsg(now+d.AccessLat+extra, d.sendFn,
		d.pool.NewFrom(Msg{Type: MsgPutAck, Dst: dst, Addr: addr}, nil))
}

// OnRequest is the front end for a GetS / GetX. A request for a line
// with a transaction in flight parks behind it; one for a line an L1
// owns is forwarded to the owner. One that misses claims a victim and
// fetches the line from memory, then is re-dispatched when the fill
// lands; it retries next cycle instead while every way of the set is
// busy, while a transaction (perhaps an eviction) is active in the set
// — rather than evicting way after way — or when claiming the victim
// has just started an asynchronous eviction. OnRequest returns the line
// only when the protocol serves the request now.
func (d *DirBase[M]) OnRequest(now sim.Cycle, m *Msg) *memsys.Way[M] {
	if w := d.Cache.Peek(m.Addr); w != nil {
		if w.Busy {
			d.Txs.EnqueueWaiting(m)
			return nil
		}
		if w.State == d.excl {
			d.forward(now, m, w)
			return nil
		}
		return w
	}
	v := d.Cache.Victim(m.Addr)
	if v == nil || v.Valid && (d.Cache.AnyBusy(m.Addr) || !d.evict(now, v)) {
		d.Txs.EnqueueRetry(m)
		return nil
	}
	d.Cache.Install(v, m.Addr)
	d.Begin(v, TxMemFetch, m, 0)
	d.Timers.AtMsg(now+d.AccessLat+d.Mem.Latency(m.Addr), d.fillFn, m)
	return nil
}

// Begin opens a transaction of kind on the line w: the line turns busy,
// and requests for it park behind the transaction until it retires.
func (d *DirBase[M]) Begin(w *memsys.Way[M], kind int, req *Msg, acks int) *Tx {
	w.Busy = true
	return d.Txs.New(w.Tag, kind, req, acks)
}

// forward hands a request for the line w, which an L1 owns, to that
// owner: a GetS as a FwdGetS (the owner's WBData completes it,
// OnWBData), a GetX as a FwdGetX (the requester's Ack completes it,
// OnAck).
func (d *DirBase[M]) forward(now sim.Cycle, m *Msg, w *memsys.Way[M]) {
	owner := w.Meta.Owner().Node()
	if owner == m.Requestor {
		d.Panicf(now, "%s from current owner %s", m.Type, m)
	}
	kind, fwd := TxFwdGetS, MsgFwdGetS
	if m.Type == MsgGetX {
		kind, fwd = TxFwdGetX, MsgFwdGetX
	}
	d.Begin(w, kind, m, 0)
	d.SendAfterAccess(now, Msg{Type: fwd, Dst: owner, Addr: m.Addr, Requestor: m.Requestor}, nil)
}

// evict starts evicting the valid, idle way v: an owned line is
// recalled from its owner, any other through the protocol's recall
// body. It reports whether v is free now: with no L1 copy to recall the
// line is written back if dirty and dropped; otherwise an eviction
// transaction waits for the acknowledgements (finishEvict).
func (d *DirBase[M]) evict(now sim.Cycle, v *memsys.Way[M]) bool {
	n := 1
	if v.State == d.excl {
		d.SendAfterAccess(now, Msg{Type: MsgInv, Dst: v.Meta.Owner().Node(), Addr: v.Tag}, nil)
	} else {
		n = d.recall(now, v)
	}
	if n > 0 {
		d.Begin(v, TxEvict, nil, n)
		return false
	}
	d.writeBack(v, false)
	d.Drop(v)
	return true
}

// finishEvict completes an eviction whose recall has been acknowledged:
// the line (dirty if the metadata or the recall's WBData says so) is
// written back and dropped, and requests that queued behind the
// eviction are re-dispatched — they now miss and refetch.
func (d *DirBase[M]) finishEvict(now sim.Cycle, w *memsys.Way[M], dirty bool) {
	addr := w.Tag
	d.writeBack(w, dirty)
	tx, _ := d.Txs.Get(addr)
	d.Txs.Del(addr, tx, false)
	d.Drop(w)
	d.Txs.DrainWaiting(now, addr)
}

func (d *DirBase[M]) writeBack(w *memsys.Way[M], dirty bool) {
	if dirty || w.Meta.Dirty() {
		d.Mem.WriteBlock(w.Tag, d.Cache.Block(w))
	}
}

// fill lands the memory fetch for req's line: the line enters the fill
// state, and req is re-dispatched through the table — the line is
// present now, so the protocol serves it.
func (d *DirBase[M]) fill(now sim.Cycle, req *Msg) {
	w := d.Cache.Peek(req.Addr)
	if w == nil {
		d.Panicf(now, "fetched line vanished %#x", req.Addr)
	}
	w.Meta = d.fillMeta
	d.Set(w, d.fillState)
	w.Busy = false
	d.Mem.ReadBlock(req.Addr, d.Cache.Block(w))
	tx, _ := d.Txs.Get(req.Addr)
	d.Txs.Del(req.Addr, tx, false)
	d.Txs.Consume(now, req)
}

// OnPut is the front end for an owner's PutE / PutM. It parks behind a
// busy line and acknowledges every Put it does not park. A stale Put —
// the line gone, not exclusive, or owned by another L1 since the Put
// left — is only acknowledged; for the owner's own Put the line takes
// PutM's data and is returned for the protocol's state change.
func (d *DirBase[M]) OnPut(now sim.Cycle, m *Msg) *memsys.Way[M] {
	w := d.Cache.Peek(m.Addr)
	if w != nil && w.Busy {
		d.Txs.EnqueueWaiting(m)
		return nil
	}
	d.SendPutAck(now, m.Src, m.Addr)
	if w == nil || w.State != d.excl || w.Meta.Owner().Node() != m.Src {
		return nil
	}
	if m.Type == MsgPutM {
		copy(d.Cache.Block(w), m.Data)
	}
	return w
}

// OnAck is the front end for a requester's Ack, which finalizes an
// exclusive grant (TxAwaitAck) or an ownership hand-off (TxFwdGetX). It
// returns the transaction and its line; the protocol makes the
// requester the owner and retires the transaction.
func (d *DirBase[M]) OnAck(now sim.Cycle, m *Msg) (*Tx, *memsys.Way[M]) {
	tx := d.txFor(now, m)
	if tx.Kind != TxAwaitAck && tx.Kind != TxFwdGetX {
		d.Panicf(now, "stray Ack %s", m)
	}
	return tx, d.Cache.Peek(m.Addr)
}

// OnInvAck counts an invalidation acknowledgement down. The last one of
// an eviction's recall finishes the eviction here; the last one of a
// TxInvs transaction returns it with its line for the protocol's
// exclusive grant.
func (d *DirBase[M]) OnInvAck(now sim.Cycle, m *Msg) (*Tx, *memsys.Way[M]) {
	tx := d.txFor(now, m)
	if tx.AcksLeft--; tx.AcksLeft > 0 {
		return nil, nil
	}
	w := d.Cache.Peek(m.Addr)
	switch tx.Kind {
	case TxInvs:
		return tx, w
	case TxEvict:
		d.finishEvict(now, w, false)
	default:
		d.Panicf(now, "InvAck in tx kind %d", tx.Kind)
	}
	return nil, nil
}

// OnWBData is the front end for an owner's WBData. Answering a recall
// (TxEvict) it finishes the eviction, writing dirty data back.
// Answering a forwarded read (TxFwdGetS) the line takes the data and is
// returned with the transaction for the protocol's downgrade.
func (d *DirBase[M]) OnWBData(now sim.Cycle, m *Msg) (*Tx, *memsys.Way[M]) {
	tx := d.txFor(now, m)
	w := d.Cache.Peek(m.Addr)
	switch tx.Kind {
	case TxFwdGetS:
		copy(d.Cache.Block(w), m.Data)
		return tx, w
	case TxEvict:
		if m.Dirty {
			copy(d.Cache.Block(w), m.Data)
		}
		d.finishEvict(now, w, m.Dirty)
	default:
		d.Panicf(now, "WBData in tx kind %d", tx.Kind)
	}
	return nil, nil
}

// Retire completes tx on its line w: the line is idle again, the
// request tx retained is recycled, and requests parked behind the line
// are re-dispatched.
func (d *DirBase[M]) Retire(now sim.Cycle, w *memsys.Way[M], tx *Tx) {
	addr := w.Tag
	w.Busy = false
	d.Txs.Del(addr, tx, true)
	d.Txs.DrainWaiting(now, addr)
}

// txFor returns the transaction the completion message m (an ack or a
// writeback) belongs to; one that matches none is a protocol bug.
func (d *DirBase[M]) txFor(now sim.Cycle, m *Msg) *Tx {
	tx, ok := d.Txs.Get(m.Addr)
	if !ok {
		d.Panicf(now, "stray %s", m)
	}
	return tx
}

// SnoopBlock implements Controller: a valid line is authoritative
// unless an L1 owns it.
func (d *DirBase[M]) SnoopBlock(addr uint64) ([]byte, bool) {
	if w := d.Cache.Peek(addr); w != nil && w.State != d.excl {
		return d.Cache.Block(w), true
	}
	return nil, false
}

// SnoopOwner implements Directory.
func (d *DirBase[M]) SnoopOwner(addr uint64) (NodeID, bool) {
	if w := d.Cache.Peek(addr); w != nil && w.State == d.excl {
		return w.Meta.Owner().Node(), true
	}
	return 0, false
}

// BindWaker implements sim.WakeSink: the wake handle flows into the
// timer heap and the transaction table, which mark this tile due for
// scheduled actions and delivered messages respectively.
func (d *DirBase[M]) BindWaker(w sim.Waker) {
	d.Timers.SetWaker(w)
	d.Txs.SetWaker(w)
}

// Deliver implements mesh.Endpoint.
func (d *DirBase[M]) Deliver(now sim.Cycle, m *Msg) { d.Txs.Deliver(m) }

// Tick processes timers, retries and inbox messages.
func (d *DirBase[M]) Tick(now sim.Cycle) {
	d.Timers.Tick(now)
	d.Txs.Drain(now)
}

// NextWake implements sim.WakeHinter: queued messages and retries need
// the very next cycle; otherwise the earliest due timer.
func (d *DirBase[M]) NextWake(now sim.Cycle) sim.Cycle {
	if d.Txs.QueuedWork() {
		return now + 1
	}
	if due, ok := d.Timers.NextDue(); ok {
		return due
	}
	return sim.WakeNever
}

// Busy reports outstanding work (completion/deadlock checks).
func (d *DirBase[M]) Busy() bool {
	return d.Txs.Outstanding() || d.Timers.Pending() > 0
}

// Tx implements Directory.
func (d *DirBase[M]) Tx() *TxTable { return &d.Txs }

// TxLive reports registered-but-unretired transactions (leak check).
func (d *DirBase[M]) TxLive() int64 { return d.Txs.LiveTx() }

// TxKindName implements Directory.
func (d *DirBase[M]) TxKindName(kind int) string {
	switch {
	case kind == TxInvs:
		return d.invKind
	case kind > 0 && kind < len(txKindNames):
		return txKindNames[kind]
	}
	return fmt.Sprintf("kind-%d", kind)
}

// ObsCounters implements Directory.
func (d *DirBase[M]) ObsCounters() []*stats.Counter {
	return append(d.Txs.Counters(), d.counters...)
}

// Debug renders outstanding transaction state (deadlock diagnostics).
func (d *DirBase[M]) Debug() string {
	return fmt.Sprintf("L2 %d:%s timers=%d", d.Tile, d.Txs.Debug(), d.Timers.Pending())
}
