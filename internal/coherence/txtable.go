package coherence

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Tx is the one record of a busy directory line. Kind is one of the Tx*
// kinds (dirbase.go); Req is the request message the transaction
// retains (the table recycles it at retirement unless told otherwise);
// AcksLeft counts outstanding acknowledgements. IsUpgrade is protocol
// scratch (MESI: the requester already holds the data).
//
// The table keeps the rest: whether a transaction is in flight, its
// birth cycle, the audit's re-arm cycle, and the messages parked behind
// the line. A record outlives its transaction only while messages are
// parked on it, so the next transaction on the line (the request a
// fill re-dispatches) takes the same record and its queue.
type Tx struct {
	Kind      int
	Req       *Msg
	AcksLeft  int
	IsUpgrade bool

	addr    uint64
	busy    bool      // a transaction is in flight: New to Del
	born    sim.Cycle // cycle New registered it
	audited sim.Cycle // born, or the audit's last over-age report
	waiting []*Msg    // parked behind the line, in arrival order
}

// TxTable owns the transaction lifecycle and message-ownership
// discipline of a directory controller: one record per busy line
// (holding the messages parked behind it), the retry queue and the
// consume/retained recycling over MsgPool.
//
// Ownership rules:
//
//   - A delivered message is owned by the table from Deliver until the
//     bound handler returns inside Consume; it is then recycled to the
//     pool unless the handler retained it.
//   - Retaining happens implicitly through the table: New(addr, ..., req)
//     with a non-nil req, EnqueueWaiting, and EnqueueRetry all mark the
//     in-flight message retained. Handlers never touch the flag directly.
//   - A retained request is recycled when its transaction retires
//     (Del with freeReq=true), or re-enters the dispatch path via
//     Consume when re-dispatched (waiters, retries, fetch completions),
//     restoring single ownership.
//
// New and Del check the lifecycle in every build: a second transaction
// on a busy line and the retirement of a record that is not in flight
// are reported to the armed audit (ArmAudit), or panic.
type TxTable struct {
	pool   *MsgPool
	handle func(now sim.Cycle, m *Msg)

	// tx holds one record per busy line, and per line with parked
	// messages; free holds retired records for reuse.
	tx   map[uint64]*Tx
	free []*Tx
	// spare is an emptied waiting queue DrainWaiting swaps in for the
	// one it drains, so a park -> drain episode starts no fresh slice.
	spare []*Msg
	// parked counts the messages parked behind all lines, so a
	// DrainWaiting with none parked skips the map.
	parked int

	inbox []*Msg

	// retryQ swaps with retryScratch each Drain: handlers may re-append
	// to retryQ while the drained batch is still being iterated.
	retryQ       []*Msg
	retryScratch []*Msg

	// retained marks whether the message currently being handled was
	// stored (tx request, waiting queue, retry queue) and must not be
	// recycled by the Consume wrapper.
	retained bool

	// waker marks the owning controller due when a message is delivered
	// into the inbox from outside its Tick (the wake-set scheduling
	// contract; retry/waiting queues need no wake — they are only
	// appended to from inside the owner's own tick, whose post-tick
	// NextWake refresh reports them via QueuedWork).
	waker sim.Waker

	// stall, when set, is consulted before each Drain consumption; a true
	// return defers the message to the next drain round (fault
	// injection). The deferred message stays table-owned in retryQ —
	// Consume never runs, so the retained discipline is untouched — and
	// QueuedWork keeps reporting it, so the owner re-ticks next cycle.
	stall func(m *Msg) bool

	// News/Dels count transaction registrations and retirements. They
	// always run (one increment per transaction boundary), so a leak is
	// visible as News != Dels on any completed run, and they carry names
	// (SetLabel) so forensic dumps identify the table. Waits/Retries
	// count messages parked behind a busy line and messages re-queued
	// for the next drain — the directory's back-pressure signals.
	News    stats.Counter
	Dels    stats.Counter
	Waits   stats.Counter
	Retries stats.Counter

	// Observability sinks (SetObsSinks), nil when disabled: latSink
	// receives each transaction's birth-to-death latency, spanSink its
	// begin/end edges.
	latSink  func(cycles sim.Cycle)
	spanSink func(begin bool, now sim.Cycle, addr uint64, kind int)

	// Continuous lifecycle audit (ArmAudit): the age bound past which a
	// transaction is reported leaked, and the report sink. lastNow
	// tracks the latest cycle the table saw so New (which has no now
	// parameter) can stamp births; lastSweep rate-limits the age scan.
	auditAge  sim.Cycle
	auditFn   func(string)
	lastNow   sim.Cycle
	lastSweep sim.Cycle
}

// SetLabel names the table's lifecycle counters so negative-delta
// panics and forensic dumps identify which tile's table misbehaved.
func (t *TxTable) SetLabel(label string) {
	t.News.SetName(label + ".tx_news")
	t.Dels.SetName(label + ".tx_dels")
	t.Waits.SetName(label + ".tx_waits")
	t.Retries.SetName(label + ".tx_retries")
}

// Counters returns the table's lifecycle counters for metrics-registry
// registration (name them with SetLabel first).
func (t *TxTable) Counters() []*stats.Counter {
	return []*stats.Counter{&t.News, &t.Dels, &t.Waits, &t.Retries}
}

// LiveTx reports registered-minus-retired transactions; nonzero after a
// completed run means a leaked transaction record.
func (t *TxTable) LiveTx() int64 { return t.News.Value() - t.Dels.Value() }

// ArmAudit turns on the continuous transaction-lifecycle audit: double
// registration and unregistered retirement are reported instead of
// panicking, and any transaction outstanding longer than maxAge cycles
// is reported as leaked (then re-armed, so a still-stuck transaction
// re-reports once per maxAge). report receives a one-line description;
// the table keeps running so the engine's own deadlock detection still
// fires.
func (t *TxTable) ArmAudit(maxAge sim.Cycle, report func(string)) {
	t.auditAge = maxAge
	t.auditFn = report
}

// SetObsSinks installs the observability sinks: lat receives each
// transaction's birth-to-death latency in cycles, span receives
// begin/end edges (begin carries the registered kind, end the kind at
// retirement). Both are nil-guarded, so an un-observed table's hot path
// is untouched.
func (t *TxTable) SetObsSinks(lat func(cycles sim.Cycle), span func(begin bool, now sim.Cycle, addr uint64, kind int)) {
	t.latSink = lat
	t.spanSink = span
}

// SetStall installs a consumption-stall hook (see the stall field);
// nil removes it.
func (t *TxTable) SetStall(f func(m *Msg) bool) { t.stall = f }

// SetWaker binds the owning controller's wake handle (see waker).
func (t *TxTable) SetWaker(w sim.Waker) { t.waker = w }

// Init prepares the table: pool is the message free list, handle the
// controller's dispatch function (bound once — Consume calls it for
// every owned message).
func (t *TxTable) Init(pool *MsgPool, handle func(now sim.Cycle, m *Msg)) {
	t.pool = pool
	t.handle = handle
	t.tx = make(map[uint64]*Tx)
}

// New registers a transaction for addr, on the line's record if
// messages are parked on it, else on one from the free list. A non-nil
// req is retained by the transaction.
func (t *TxTable) New(addr uint64, kind int, req *Msg, acks int) *Tx {
	t.News.Inc()
	tx := t.tx[addr]
	if tx == nil {
		if n := len(t.free); n > 0 {
			tx = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			tx = &Tx{}
		}
		tx.addr = addr
		t.tx[addr] = tx
	} else if tx.busy {
		t.fault(fmt.Sprintf("double transaction registered for %#x (new kind=%d)", addr, kind))
	}
	if t.spanSink != nil {
		t.spanSink(true, t.lastNow, addr, kind)
	}
	tx.Kind, tx.Req, tx.AcksLeft = kind, req, acks
	tx.IsUpgrade = false
	tx.busy, tx.born, tx.audited = true, t.lastNow, t.lastNow
	if req != nil {
		t.retained = true
	}
	return tx
}

// Del retires a transaction, recycling (when freeReq) the request
// message it retained, and the record too unless messages are parked on
// it. With freeReq false the caller takes over ownership of tx.Req
// before the call (e.g. to re-dispatch it).
func (t *TxTable) Del(addr uint64, tx *Tx, freeReq bool) {
	if !tx.busy || tx.addr != addr {
		t.fault(fmt.Sprintf("retiring unregistered transaction for %#x (kind=%d)", addr, tx.Kind))
		return
	}
	t.Dels.Inc()
	if t.latSink != nil {
		t.latSink(t.lastNow - tx.born)
	}
	if t.spanSink != nil {
		t.spanSink(false, t.lastNow, addr, tx.Kind)
	}
	if freeReq && tx.Req != nil {
		t.pool.Put(tx.Req)
	}
	tx.Req = nil
	tx.busy = false
	if len(tx.waiting) == 0 {
		t.release(tx)
	}
}

// release drops the idle record tx from the map onto the free list.
func (t *TxTable) release(tx *Tx) {
	delete(t.tx, tx.addr)
	t.free = append(t.free, tx)
}

// fault reports a lifecycle violation to the armed audit, or panics
// when none is armed.
func (t *TxTable) fault(msg string) {
	if t.auditFn == nil {
		panic("coherence: TxTable: " + msg)
	}
	t.auditFn(msg)
}

// Get returns the transaction in flight for addr; busy reports whether
// there is one.
func (t *TxTable) Get(addr uint64) (tx *Tx, busy bool) {
	if tx = t.tx[addr]; tx != nil && tx.busy {
		return tx, true
	}
	return nil, false
}

// EnqueueWaiting parks m behind its busy line; DrainWaiting re-dispatches
// it when the transaction retires. Owns the retained flag.
func (t *TxTable) EnqueueWaiting(m *Msg) {
	tx, busy := t.Get(m.Addr)
	if !busy {
		panic(fmt.Sprintf("coherence: TxTable: parking behind idle line %#x", m.Addr))
	}
	t.Waits.Inc()
	t.parked++
	tx.waiting = append(tx.waiting, m)
	t.retained = true
}

// EnqueueRetry re-queues m for the next Drain. Owns the retained flag.
func (t *TxTable) EnqueueRetry(m *Msg) {
	t.Retries.Inc()
	t.retryQ = append(t.retryQ, m)
	t.retained = true
}

// Deliver appends a delivered message to the inbox (mesh.Endpoint hook)
// and marks the owning controller due this cycle.
func (t *TxTable) Deliver(m *Msg) {
	t.inbox = append(t.inbox, m)
	t.waker.Wake()
}

// Consume dispatches a message the controller owns through the bound
// handler, recycling it unless a handler retained it. Save/restore keeps
// nested consumption (a handler draining the waiting queue) from
// clobbering the caller's flag.
func (t *TxTable) Consume(now sim.Cycle, m *Msg) {
	t.lastNow = now
	saved := t.retained
	t.retained = false
	t.handle(now, m)
	if !t.retained {
		t.pool.Put(m)
	}
	t.retained = saved
}

// Drain processes the retry queue, then the inbox, consuming each
// message in arrival order. Call once per controller Tick. When the
// lifecycle audit is armed it also sweeps for over-age transactions
// (rate-limited to every auditAge/4 cycles).
func (t *TxTable) Drain(now sim.Cycle) {
	t.lastNow = now
	if t.auditFn != nil && now-t.lastSweep >= t.auditAge/4 {
		t.lastSweep = now
		t.sweepAges(now)
	}
	if len(t.retryQ) > 0 {
		rq := t.retryQ
		t.retryQ = t.retryScratch[:0]
		for _, m := range rq {
			if t.stall != nil && t.stall(m) {
				t.retryQ = append(t.retryQ, m)
				continue
			}
			t.Consume(now, m)
		}
		t.retryScratch = rq[:0]
	}
	if len(t.inbox) == 0 {
		return
	}
	// Deliveries happen only inside Network.Tick, so nothing appends to
	// the inbox while this batch drains; the backing array is reusable.
	msgs := t.inbox
	t.inbox = t.inbox[:0]
	for _, m := range msgs {
		if t.stall != nil && t.stall(m) {
			t.retryQ = append(t.retryQ, m)
			continue
		}
		t.Consume(now, m)
	}
}

// DrainWaiting re-dispatches every message parked behind addr (after its
// transaction retired), in arrival order. A message that parks again
// while the queue drains starts a new queue; the drained one becomes the
// spare afterwards.
func (t *TxTable) DrainWaiting(now sim.Cycle, addr uint64) {
	if t.parked == 0 {
		return
	}
	tx := t.tx[addr]
	if tx == nil || len(tx.waiting) == 0 {
		return
	}
	q := tx.waiting
	t.parked -= len(q)
	tx.waiting, t.spare = t.spare, nil
	if !tx.busy {
		t.release(tx)
	}
	for _, m := range q {
		t.Consume(now, m)
	}
	clear(q)
	t.spare = q[:0]
}

// QueuedWork reports whether messages are queued for the next tick
// (sim.WakeHinter input: queued work needs the very next cycle).
func (t *TxTable) QueuedWork() bool { return len(t.inbox) > 0 || len(t.retryQ) > 0 }

// Outstanding reports whether any transaction, parked message, queued
// retry or inbox message is pending (completion/deadlock checks).
func (t *TxTable) Outstanding() bool {
	return len(t.tx) > 0 || len(t.retryQ) > 0 || len(t.inbox) > 0
}

// sorted returns the table's records in address order, so reports and
// dumps are deterministic.
func (t *TxTable) sorted() []*Tx {
	txs := make([]*Tx, 0, len(t.tx))
	for _, tx := range t.tx {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i].addr < txs[j].addr })
	return txs
}

// sweepAges reports every transaction older than auditAge since its
// birth or its last report, in address order so the report stream is
// deterministic, and re-arms each reported one so a still-stuck
// transaction re-reports once per auditAge rather than every sweep. The
// report gives the age since birth.
func (t *TxTable) sweepAges(now sim.Cycle) {
	for _, tx := range t.sorted() {
		if tx.busy && now-tx.audited > t.auditAge {
			t.auditFn(fmt.Sprintf("transaction for %#x (kind=%d) outstanding %d cycles (born cycle %d)",
				tx.addr, tx.Kind, now-tx.born, tx.born))
			tx.audited = now
		}
	}
}

// Debug renders outstanding transaction state (deadlock diagnostics),
// in address order: transactions in flight, then parked messages;
// birth cycles are included when the lifecycle audit is armed.
func (t *TxTable) Debug() string {
	txs := t.sorted()
	s := ""
	for _, tx := range txs {
		if !tx.busy {
			continue
		}
		s += fmt.Sprintf(" tx=%#x(kind=%d acks=%d", tx.addr, tx.Kind, tx.AcksLeft)
		if t.auditFn != nil {
			s += fmt.Sprintf(" born=%d", tx.born)
		}
		s += ")"
	}
	for _, tx := range txs {
		if len(tx.waiting) > 0 {
			s += fmt.Sprintf(" wait=%#x(%d)", tx.addr, len(tx.waiting))
		}
	}
	s += fmt.Sprintf(" retry=%d inbox=%d live=%d", len(t.retryQ), len(t.inbox), t.LiveTx())
	return s
}
