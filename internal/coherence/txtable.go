package coherence

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Tx is one outstanding directory transaction. Kind is one of the Tx*
// kinds (dirbase.go); Req is the request message the transaction
// retains (the table recycles it at retirement unless told otherwise);
// AcksLeft counts outstanding acknowledgements. IsUpgrade is protocol
// scratch (MESI: the requester already holds the data).
type Tx struct {
	Kind      int
	Req       *Msg
	AcksLeft  int
	IsUpgrade bool
}

// TxTable owns the transaction lifecycle and message-ownership
// discipline of a directory controller: transaction records, waiter
// lists, retry queues and the consume/retained recycling over MsgPool.
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
// Build-tagged assertions (-tags txdebug) verify the lifecycle: no
// transaction is double-registered and retired transactions match the
// registered record.
type TxTable struct {
	pool   *MsgPool
	handle func(now sim.Cycle, m *Msg)

	tx      map[uint64]*Tx
	free    []*Tx
	waiting map[uint64][]*Msg
	// waitFree holds emptied waiting queues for reuse: every busy-line
	// episode would otherwise start a fresh slice.
	waitFree [][]*Msg

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

	// Continuous lifecycle audit (ArmAudit): birth cycles per
	// registered address, the age bound past which a transaction is
	// reported leaked, and the report sink. lastNow tracks the latest
	// cycle the table saw so New (which has no now parameter) can stamp
	// births; lastSweep rate-limits the age scan.
	births    map[uint64]sim.Cycle
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

// ArmAudit turns on the continuous transaction-lifecycle audit:
// double registration and unregistered retirement report immediately at
// runtime (not only under -tags txdebug), and any transaction
// outstanding longer than maxAge cycles is reported as leaked (then
// re-armed, so a still-stuck transaction re-reports once per maxAge).
// report receives a one-line description; the table keeps running so
// the engine's own deadlock detection still fires.
func (t *TxTable) ArmAudit(maxAge sim.Cycle, report func(string)) {
	t.auditAge = maxAge
	t.auditFn = report
	t.births = make(map[uint64]sim.Cycle)
}

// SetObsSinks installs the observability sinks: lat receives each
// transaction's birth-to-death latency in cycles, span receives
// begin/end edges (begin carries the registered kind, end the kind at
// retirement). Arming lat allocates the birth map shared with
// ArmAudit; both sinks are nil-guarded, so an un-observed table's hot
// path is untouched.
func (t *TxTable) SetObsSinks(lat func(cycles sim.Cycle), span func(begin bool, now sim.Cycle, addr uint64, kind int)) {
	t.latSink = lat
	t.spanSink = span
	if lat != nil && t.births == nil {
		t.births = make(map[uint64]sim.Cycle)
	}
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
	t.waiting = make(map[uint64][]*Msg)
}

// New builds a transaction record from the free list and registers it
// for addr. A non-nil req is retained by the transaction.
func (t *TxTable) New(addr uint64, kind int, req *Msg, acks int) *Tx {
	if txDebug {
		if _, dup := t.tx[addr]; dup {
			panic(fmt.Sprintf("coherence: TxTable: double transaction for %#x", addr))
		}
	}
	t.News.Inc()
	if t.auditFn != nil {
		if _, dup := t.tx[addr]; dup {
			t.auditFn(fmt.Sprintf("double transaction registered for %#x (new kind=%d)", addr, kind))
		}
	}
	if t.births != nil {
		t.births[addr] = t.lastNow
	}
	if t.spanSink != nil {
		t.spanSink(true, t.lastNow, addr, kind)
	}
	var tx *Tx
	if n := len(t.free); n > 0 {
		tx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		tx = &Tx{}
	}
	tx.Kind, tx.Req, tx.AcksLeft = kind, req, acks
	tx.IsUpgrade = false
	t.tx[addr] = tx
	if req != nil {
		t.retained = true
	}
	return tx
}

// Del retires a transaction, recycling the record and (when freeReq) the
// request message it retained. With freeReq false the caller takes over
// ownership of tx.Req before the call (e.g. to re-dispatch it).
func (t *TxTable) Del(addr uint64, tx *Tx, freeReq bool) {
	if txDebug {
		if reg, ok := t.tx[addr]; !ok || reg != tx {
			panic(fmt.Sprintf("coherence: TxTable: retiring unregistered transaction for %#x", addr))
		}
	}
	t.Dels.Inc()
	if t.auditFn != nil {
		if reg, ok := t.tx[addr]; !ok || reg != tx {
			t.auditFn(fmt.Sprintf("retiring unregistered transaction for %#x (kind=%d)", addr, tx.Kind))
		}
	}
	if t.births != nil {
		if b, ok := t.births[addr]; ok {
			if t.latSink != nil {
				t.latSink(t.lastNow - b)
			}
			delete(t.births, addr)
		}
	}
	if t.spanSink != nil {
		t.spanSink(false, t.lastNow, addr, tx.Kind)
	}
	delete(t.tx, addr)
	if freeReq && tx.Req != nil {
		t.pool.Put(tx.Req)
	}
	tx.Req = nil
	t.free = append(t.free, tx)
}

// Get returns the transaction registered for addr, if any.
func (t *TxTable) Get(addr uint64) (*Tx, bool) {
	tx, ok := t.tx[addr]
	return tx, ok
}

// BusyLine reports whether a transaction is outstanding for addr.
func (t *TxTable) BusyLine(addr uint64) bool {
	_, ok := t.tx[addr]
	return ok
}

// EnqueueWaiting parks m behind a busy line; DrainWaiting re-dispatches
// it when the transaction retires. Owns the retained flag.
func (t *TxTable) EnqueueWaiting(m *Msg) {
	t.Waits.Inc()
	q, ok := t.waiting[m.Addr]
	if n := len(t.waitFree); !ok && n > 0 {
		q = t.waitFree[n-1]
		t.waitFree = t.waitFree[:n-1]
	}
	t.waiting[m.Addr] = append(q, m)
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
// while the queue drains starts a new queue; the drained one is recycled
// afterwards.
func (t *TxTable) DrainWaiting(now sim.Cycle, addr uint64) {
	q, ok := t.waiting[addr]
	if !ok {
		return
	}
	delete(t.waiting, addr)
	for _, m := range q {
		t.Consume(now, m)
	}
	clear(q)
	t.waitFree = append(t.waitFree, q[:0])
}

// QueuedWork reports whether messages are queued for the next tick
// (sim.WakeHinter input: queued work needs the very next cycle).
func (t *TxTable) QueuedWork() bool { return len(t.inbox) > 0 || len(t.retryQ) > 0 }

// Outstanding reports whether any transaction, queued retry or inbox
// message is pending (completion/deadlock checks).
func (t *TxTable) Outstanding() bool {
	return len(t.tx) > 0 || len(t.retryQ) > 0 || len(t.inbox) > 0
}

// sweepAges reports every audited transaction older than auditAge,
// in address order so the report stream is deterministic, and re-arms
// each reported birth so a still-stuck transaction re-reports once per
// auditAge rather than every sweep.
func (t *TxTable) sweepAges(now sim.Cycle) {
	var stale []uint64
	for a, b := range t.births {
		if now-b > t.auditAge {
			stale = append(stale, a)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, a := range stale {
		kind := -1
		if tx, ok := t.tx[a]; ok {
			kind = tx.Kind
		}
		t.auditFn(fmt.Sprintf("transaction for %#x (kind=%d) outstanding %d cycles (born cycle %d)",
			a, kind, now-t.births[a], t.births[a]))
		t.births[a] = now
	}
}

// Debug renders outstanding transaction state (deadlock diagnostics),
// in address order; birth cycles are included when the lifecycle audit
// is armed.
func (t *TxTable) Debug() string {
	addrs := make([]uint64, 0, len(t.tx))
	for a := range t.tx {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	s := ""
	for _, a := range addrs {
		tx := t.tx[a]
		s += fmt.Sprintf(" tx=%#x(kind=%d acks=%d", a, tx.Kind, tx.AcksLeft)
		if b, ok := t.births[a]; ok {
			s += fmt.Sprintf(" born=%d", b)
		}
		s += ")"
	}
	waits := make([]uint64, 0, len(t.waiting))
	for a := range t.waiting {
		waits = append(waits, a)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	for _, a := range waits {
		s += fmt.Sprintf(" wait=%#x(%d)", a, len(t.waiting[a]))
	}
	s += fmt.Sprintf(" retry=%d inbox=%d live=%d", len(t.retryQ), len(t.inbox), t.LiveTx())
	return s
}
