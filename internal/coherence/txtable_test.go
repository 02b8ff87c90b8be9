package coherence

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// txHarness binds a TxTable to a scripted handler.
type txHarness struct {
	pool    MsgPool
	txs     TxTable
	handler func(now sim.Cycle, m *Msg)
	handled []*Msg
}

func newTxHarness() *txHarness {
	h := &txHarness{}
	h.txs.Init(&h.pool, func(now sim.Cycle, m *Msg) {
		h.handled = append(h.handled, m)
		if h.handler != nil {
			h.handler(now, m)
		}
	})
	return h
}

func TestTxTableLifecycle(t *testing.T) {
	h := newTxHarness()
	req := h.pool.Get()
	req.Addr = 0x40

	tx := h.txs.New(0x40, 1, req, 2)
	if _, busy := h.txs.Get(0x80); busy {
		t.Fatal("idle line reported busy")
	}
	got, ok := h.txs.Get(0x40)
	if !ok || got != tx || got.Req != req || got.AcksLeft != 2 {
		t.Fatalf("Get returned %+v", got)
	}
	if !h.txs.Outstanding() {
		t.Fatal("open transaction not outstanding")
	}
	h.txs.Del(0x40, tx, true)
	if h.txs.Outstanding() {
		t.Fatal("still outstanding after Del")
	}
	if h.pool.Live() != 0 {
		t.Fatalf("retained request leaked: live=%d", h.pool.Live())
	}
	// The record is recycled through the free list.
	tx2 := h.txs.New(0x80, 2, nil, 0)
	if tx2 != tx {
		t.Fatal("transaction record not recycled")
	}
	if tx2.IsUpgrade {
		t.Fatal("recycled record not cleared")
	}
	h.txs.Del(0x80, tx2, true)
}

// TestTxTableConsumeRecycles: a message the handler does not retain goes
// straight back to the pool; a retained one survives until its
// transaction retires.
func TestTxTableConsumeRecycles(t *testing.T) {
	h := newTxHarness()

	m1 := h.pool.Get()
	h.txs.Consume(1, m1)
	if h.pool.Live() != 0 {
		t.Fatalf("unretained message not recycled: live=%d", h.pool.Live())
	}

	m2 := h.pool.Get()
	m2.Addr = 0x100
	h.handler = func(now sim.Cycle, m *Msg) { h.txs.New(m.Addr, 1, m, 0) }
	h.txs.Consume(2, m2)
	if h.pool.Live() != 1 {
		t.Fatalf("retained message recycled early: live=%d", h.pool.Live())
	}
	tx, _ := h.txs.Get(0x100)
	h.handler = nil
	h.txs.Del(0x100, tx, true)
	if err := h.pool.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTxTableWaitingAndRetry: parked messages re-dispatch in arrival
// order, and the nested-consumption save/restore keeps an outer retained
// flag intact while waiters drain.
func TestTxTableWaitingAndRetry(t *testing.T) {
	h := newTxHarness()
	mk := func(addr uint64, req NodeID) *Msg {
		m := h.pool.Get()
		m.Addr, m.Requestor = addr, req
		return m
	}

	// Open a transaction, park two waiters behind it.
	h.handler = func(now sim.Cycle, m *Msg) {
		if _, busy := h.txs.Get(m.Addr); busy {
			h.txs.EnqueueWaiting(m)
		}
	}
	h.txs.New(0x40, 1, nil, 0)
	h.txs.Consume(1, mk(0x40, 7))
	h.txs.Consume(1, mk(0x40, 8))
	if h.pool.Live() != 2 {
		t.Fatalf("waiters not retained: live=%d", h.pool.Live())
	}

	// Retire the transaction; waiters drain in arrival order and recycle.
	tx, _ := h.txs.Get(0x40)
	h.txs.Del(0x40, tx, true)
	var order []NodeID
	h.handler = func(now sim.Cycle, m *Msg) { order = append(order, m.Requestor) }
	h.txs.DrainWaiting(2, 0x40)
	if len(order) != 2 || order[0] != 7 || order[1] != 8 || h.pool.Live() != 0 {
		t.Fatalf("waiters drained wrong: order=%v live=%d", order, h.pool.Live())
	}

	// Retry queue: enqueued messages re-dispatch on the next Drain, and
	// a handler re-retrying does not corrupt the in-flight batch.
	retries := 0
	h.handler = func(now sim.Cycle, m *Msg) {
		if retries == 0 {
			retries++
			h.txs.EnqueueRetry(m)
		}
	}
	h.txs.EnqueueRetry(mk(0x80, 9))
	if !h.txs.QueuedWork() {
		t.Fatal("retry not queued")
	}
	h.txs.Drain(3) // first pass re-enqueues
	h.txs.Drain(4) // second pass consumes
	if h.txs.QueuedWork() || h.pool.Live() != 0 {
		t.Fatalf("retry not settled: queued=%v live=%d", h.txs.QueuedWork(), h.pool.Live())
	}
}

// TestTxTableInboxDrain: delivered messages consume in arrival order.
func TestTxTableInboxDrain(t *testing.T) {
	h := newTxHarness()
	var order []uint64
	h.handler = func(now sim.Cycle, m *Msg) { order = append(order, m.Addr) }
	for i := uint64(1); i <= 3; i++ {
		m := h.pool.Get()
		m.Addr = i * 0x40
		h.txs.Deliver(m)
	}
	if !h.txs.QueuedWork() || !h.txs.Outstanding() {
		t.Fatal("inbox not visible")
	}
	h.txs.Drain(1)
	if len(order) != 3 || order[0] != 0x40 || order[1] != 0x80 || order[2] != 0xc0 {
		t.Fatalf("inbox order %v", order)
	}
	if err := h.pool.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTxTableLifecycleAudit: LiveTx tracks births vs retirements, and
// the armed audit reports an over-age transaction (re-arming so a
// still-stuck one re-reports once per age window, not every sweep),
// while retired transactions never report.
func TestTxTableLifecycleAudit(t *testing.T) {
	h := newTxHarness()
	var reports []string
	h.txs.SetLabel("test.l2")
	h.txs.ArmAudit(100, func(msg string) { reports = append(reports, msg) })

	h.txs.Drain(1) // anchors lastNow so births stamp cycle 1
	txA := h.txs.New(0x40, 3, nil, 0)
	h.txs.New(0x80, 4, nil, 0)
	if live := h.txs.LiveTx(); live != 2 {
		t.Fatalf("LiveTx = %d, want 2", live)
	}

	// Retire one young: it must never be reported.
	h.txs.Del(0x40, txA, true)
	if live := h.txs.LiveTx(); live != 1 {
		t.Fatalf("LiveTx after Del = %d, want 1", live)
	}

	// Age past maxAge: exactly the stuck transaction reports, with its
	// address, kind, and age.
	h.txs.Drain(150)
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want exactly one", reports)
	}
	if !strings.Contains(reports[0], "0x80") || !strings.Contains(reports[0], "kind=4") {
		t.Fatalf("report %q does not name the stuck transaction", reports[0])
	}

	// The birth re-armed at 150: a sweep shortly after stays quiet, and
	// another full age window later it re-reports.
	h.txs.Drain(200)
	if len(reports) != 1 {
		t.Fatalf("re-reported before a full age window: %v", reports)
	}
	h.txs.Drain(300)
	if len(reports) != 2 {
		t.Fatalf("stuck transaction did not re-report: %v", reports)
	}

	txB, _ := h.txs.Get(0x80)
	h.txs.Del(0x80, txB, true)
	if live := h.txs.LiveTx(); live != 0 {
		t.Fatalf("LiveTx after full retirement = %d", live)
	}
	h.txs.Drain(500)
	if len(reports) != 2 {
		t.Fatalf("retired transaction reported: %v", reports)
	}
}

func TestMsgPoolLeakCheck(t *testing.T) {
	var p MsgPool
	m := p.Get()
	if err := p.LeakCheck(); err == nil {
		t.Fatal("live message not reported as leak")
	}
	p.Put(m)
	if err := p.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if p.Live() != 0 {
		t.Fatalf("live = %d", p.Live())
	}
}

// TestTxTableWaitingQueueReused: a park → drain episode on a busy line
// reuses an emptied waiting queue instead of growing a fresh one, so in
// steady state it allocates nothing; the drained messages are recycled.
func TestTxTableWaitingQueueReused(t *testing.T) {
	h := newTxHarness()
	now := sim.Cycle(0)
	addr := uint64(0x40)
	episode := func() {
		now++
		addr ^= 0x1c0 // alternate lines: each episode starts a new map entry
		tx := h.txs.New(addr, 1, nil, 0)
		for i := 0; i < 3; i++ {
			m := h.pool.Get()
			m.Addr = addr
			h.txs.EnqueueWaiting(m)
		}
		h.txs.Del(addr, tx, true)
		h.txs.DrainWaiting(now, addr)
		h.handled = h.handled[:0]
	}
	episode() // warm up: the first queue, the pool and the map
	if n := testing.AllocsPerRun(200, episode); n != 0 {
		t.Fatalf("park -> drain allocates %.1f/op, want 0", n)
	}
	if h.pool.Live() != 0 || len(h.txs.tx) != 0 || len(h.txs.free) != 1 {
		t.Fatalf("after drains: live=%d records=%d free records=%d", h.pool.Live(), len(h.txs.tx), len(h.txs.free))
	}
}

// TestTxTableLatencyFromBirth: the audit's re-arm of an over-age
// transaction moves only its next report; the latency sink still
// measures from birth, and the report gives the age since birth.
func TestTxTableLatencyFromBirth(t *testing.T) {
	h := newTxHarness()
	var reports []string
	var lats []sim.Cycle
	h.txs.ArmAudit(100, func(msg string) { reports = append(reports, msg) })
	h.txs.SetObsSinks(func(c sim.Cycle) { lats = append(lats, c) }, nil)

	h.txs.Drain(1) // births stamp cycle 1
	tx := h.txs.New(0x40, 1, nil, 0)
	h.txs.Drain(150) // over age: reported and re-armed
	h.txs.Drain(160)
	h.txs.Del(0x40, tx, true)
	if len(reports) != 1 || !strings.Contains(reports[0], "outstanding 149 cycles (born cycle 1)") {
		t.Fatalf("reports = %q, want one of age 149", reports)
	}
	if len(lats) != 1 || lats[0] != 159 {
		t.Fatalf("latency sink got %v, want [159]", lats)
	}
}

// TestTxTableParkedMessagesOutstanding: a message parked behind a line
// keeps the table outstanding after the line's transaction retires,
// until it is drained.
func TestTxTableParkedMessagesOutstanding(t *testing.T) {
	h := newTxHarness()
	tx := h.txs.New(0x40, 1, nil, 0)
	m := h.pool.Get()
	m.Addr = 0x40
	h.txs.EnqueueWaiting(m)
	h.txs.Del(0x40, tx, true)
	if !h.txs.Outstanding() {
		t.Fatal("parked message invisible after its transaction retired")
	}
	h.txs.DrainWaiting(2, 0x40)
	if h.txs.Outstanding() || len(h.handled) != 1 || h.pool.Live() != 0 {
		t.Fatalf("after drain: outstanding=%v handled=%d live=%d", h.txs.Outstanding(), len(h.handled), h.pool.Live())
	}
}

// TestTxTableLifecycleFaults: a second transaction on a busy line and
// the retirement of an already retired record panic with no audit
// armed, and each report exactly once with the audit armed.
func TestTxTableLifecycleFaults(t *testing.T) {
	for _, c := range []struct {
		name, want string
		fault      func(txs *TxTable)
	}{
		{"double registration", "double transaction registered for 0x40", func(txs *TxTable) {
			txs.New(0x40, 1, nil, 0)
			txs.New(0x40, 2, nil, 0)
		}},
		{"retired record", "retiring unregistered transaction for 0x40", func(txs *TxTable) {
			tx := txs.New(0x40, 1, nil, 0)
			txs.Del(0x40, tx, true)
			txs.Del(0x40, tx, true)
		}},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, c.want) {
					t.Errorf("%s without audit: recovered %q, want a panic naming %q", c.name, r, c.want)
				}
			}()
			c.fault(&newTxHarness().txs)
		}()
		h := newTxHarness()
		var reports []string
		h.txs.ArmAudit(100, func(msg string) { reports = append(reports, msg) })
		c.fault(&h.txs)
		if len(reports) != 1 || !strings.Contains(reports[0], c.want) {
			t.Errorf("%s with audit: reports %q, want one naming %q", c.name, reports, c.want)
		}
	}
}
