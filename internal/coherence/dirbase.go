package coherence

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// DirBase is the protocol-independent skeleton of a directory (L2)
// tile: identity, the timer heap and transaction table with the
// engine's wake contract over them, the delayed send path that keeps
// per-destination FIFO order, PutAck scheduling, the memory-fetch
// transaction, and the probe surface. A protocol's tile embeds it and
// supplies the cache array with its directory metadata, the message
// handler and fill callback bound at Init, its transaction-kind names,
// and SnoopBlock / SnoopOwner / PrewarmStorage over its array.
type DirBase struct {
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

	net       Network
	pool      *MsgPool
	sendFn    func(now sim.Cycle, m *Msg) // bound once; see SendAfterAccess
	filled    func(addr uint64) []byte
	kindNames []string
	counters  []*stats.Counter // protocol-specific, see AddCounter
	label     string
	prefix    string // metrics-series prefix, e.g. "tsocc.l2.3"
}

// Init wires the base for tile `tile`. proto prefixes the component
// label ("mesi L2 tile 3") and counter names ("mesi.l2.3.tx_news");
// kindNames names the protocol's Tx.Kind values for timeline spans;
// handle is the handler the table dispatches every owned message
// through. filled is StartFetch's completion: it puts the line at addr
// into the protocol's post-fill state and returns its data block for the
// base to fill from memory, or nil if the line is no longer installed.
func (d *DirBase) Init(proto string, tile, cores int, accessLat sim.Cycle, net Network, mem Memory,
	kindNames []string, handle func(now sim.Cycle, m *Msg), filled func(addr uint64) []byte) {
	d.ID = L2ID(tile, cores)
	d.Tile = tile
	d.Cores = cores
	d.AccessLat = accessLat
	d.Mem = mem
	d.net = net
	d.pool = net.MsgPoolFor(tile)
	d.sendFn = d.sendMsg
	d.filled = filled
	d.kindNames = kindNames
	d.label = fmt.Sprintf("%s L2 tile %d", proto, tile)
	d.prefix = fmt.Sprintf("%s.l2.%d", proto, tile)
	d.Txs.Init(d.pool, handle)
	d.Txs.SetLabel(d.prefix)
}

// AddCounter names a protocol-specific tile counter under this tile's
// series prefix and lists it in ObsCounters after the table's own.
func (d *DirBase) AddCounter(c *stats.Counter, suffix string) {
	c.SetName(d.prefix + suffix)
	d.counters = append(d.counters, c)
}

func (d *DirBase) sendMsg(now sim.Cycle, m *Msg) {
	m.Src = d.ID
	d.net.Send(now, m)
}

// Send stamps a pooled copy of tmpl and injects it this cycle. Only
// messages that cannot race a delayed one to the same L1 may bypass
// SendAfterAccess (timestamp reset broadcasts).
func (d *DirBase) Send(now sim.Cycle, tmpl Msg, data []byte) {
	d.sendMsg(now, d.pool.NewFrom(tmpl, data))
}

// SendAfterAccess sends after the tile access latency. Every
// directory-originated message to an L1 must leave through the same
// delay so that per-destination FIFO order matches processing order —
// an invalidation must never overtake an earlier data response.
func (d *DirBase) SendAfterAccess(now sim.Cycle, tmpl Msg, data []byte) {
	d.Timers.AtMsg(now+d.AccessLat, d.sendFn, d.pool.NewFrom(tmpl, data))
}

// SendPutAck schedules an eviction acknowledgement. The victim fault
// profile (Probe.AckDelay) adds extra cycles here, deliberately outside
// the shared SendAfterAccess delay so a late PutAck can be overtaken by
// later directory traffic to the same L1: its handler only clears an
// evict-buffer entry, so the reorder is protocol-legal and is exactly
// the victim/writeback race the profile injects.
func (d *DirBase) SendPutAck(now sim.Cycle, dst NodeID, addr uint64) {
	extra := sim.Cycle(0)
	if d.AckDelay != nil {
		extra = d.AckDelay()
	}
	d.Timers.AtMsg(now+d.AccessLat+extra, d.sendFn,
		d.pool.NewFrom(Msg{Type: MsgPutAck, Dst: dst, Addr: addr}, nil))
}

// StartFetch registers a transaction of the given kind that retains
// req and fills the freshly installed line from memory after the tile
// access plus memory latency. The request's ownership then flows back
// through the dispatch path: the line is present, so Consume re-serves
// it (recycling the message unless a fresh transaction retains it).
func (d *DirBase) StartFetch(now sim.Cycle, kind int, req *Msg) {
	addr := req.Addr
	d.Txs.New(addr, kind, req, 0)
	d.Timers.At(now+d.AccessLat+d.Mem.Latency(addr), func(nw sim.Cycle) {
		data := d.filled(addr)
		if data == nil {
			panic(fmt.Sprintf("%s cycle %d: fetched line vanished %#x", d.label, nw, addr))
		}
		d.Mem.ReadBlock(addr, data)
		tx, _ := d.Txs.Get(addr)
		retained := tx.Req
		d.Txs.Del(addr, tx, false)
		d.Txs.Consume(nw, retained)
	})
}

// TxFor returns the transaction the completion message m (an ack or a
// writeback) belongs to; one that matches none is a protocol bug.
func (d *DirBase) TxFor(now sim.Cycle, m *Msg) *Tx {
	tx, ok := d.Txs.Get(m.Addr)
	if !ok {
		panic(fmt.Sprintf("%s cycle %d: stray %s", d.label, now, m))
	}
	return tx
}

// BindWaker implements sim.WakeSink: the wake handle flows into the
// timer heap and the transaction table, which mark this tile due for
// scheduled actions and delivered messages respectively.
func (d *DirBase) BindWaker(w sim.Waker) {
	d.Timers.SetWaker(w)
	d.Txs.SetWaker(w)
}

// Deliver implements mesh.Endpoint.
func (d *DirBase) Deliver(now sim.Cycle, m *Msg) { d.Txs.Deliver(m) }

// Tick processes timers, retries and inbox messages.
func (d *DirBase) Tick(now sim.Cycle) {
	d.Timers.Tick(now)
	d.Txs.Drain(now)
}

// NextWake implements sim.WakeHinter: queued messages and retries need
// the very next cycle; otherwise the earliest due timer.
func (d *DirBase) NextWake(now sim.Cycle) sim.Cycle {
	if d.Txs.QueuedWork() {
		return now + 1
	}
	if due, ok := d.Timers.NextDue(); ok {
		return due
	}
	return sim.WakeNever
}

// Busy reports outstanding work (completion/deadlock checks).
func (d *DirBase) Busy() bool {
	return d.Txs.Outstanding() || d.Timers.Pending() > 0
}

// Tx implements Directory.
func (d *DirBase) Tx() *TxTable { return &d.Txs }

// TxLive reports registered-but-unretired transactions (leak check).
func (d *DirBase) TxLive() int64 { return d.Txs.LiveTx() }

// TxKindName implements Directory.
func (d *DirBase) TxKindName(kind int) string {
	if kind > 0 && kind < len(d.kindNames) {
		return d.kindNames[kind]
	}
	return fmt.Sprintf("kind-%d", kind)
}

// ObsCounters implements Directory.
func (d *DirBase) ObsCounters() []*stats.Counter {
	return append(d.Txs.Counters(), d.counters...)
}

// ComponentLabel implements sim.Labeled (forensic reports, panics).
func (d *DirBase) ComponentLabel() string { return d.label }

// Debug renders outstanding transaction state (deadlock diagnostics).
func (d *DirBase) Debug() string {
	return fmt.Sprintf("L2 %d:%s timers=%d", d.Tile, d.Txs.Debug(), d.Timers.Pending())
}
