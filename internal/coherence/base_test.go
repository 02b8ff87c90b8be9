package coherence

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeNet is a Network that records what was injected and when.
type fakeNet struct {
	pool MsgPool
	sent []*Msg
	at   []sim.Cycle
}

func (n *fakeNet) Send(now sim.Cycle, m *Msg) {
	n.sent = append(n.sent, m)
	n.at = append(n.at, now)
}
func (n *fakeNet) MsgPool() *MsgPool       { return &n.pool }
func (n *fakeNet) MsgPoolFor(int) *MsgPool { return &n.pool }
func (n *fakeNet) last() (*Msg, sim.Cycle) { return n.sent[len(n.sent)-1], n.at[len(n.at)-1] }
func (n *fakeNet) drop()                   { n.sent, n.at = n.sent[:0], n.at[:0] }
func (n *fakeNet) msg(t MsgType, addr uint64) *Msg {
	m := n.pool.Get()
	m.Type, m.Addr = t, addr
	return m
}

// fakeMem is a Memory with a fixed latency and a recognisable fill.
type fakeMem struct{ reads int }

func (*fakeMem) Latency(uint64) sim.Cycle { return 20 }
func (f *fakeMem) ReadBlock(_ uint64, dst []byte) {
	f.reads++
	for i := range dst {
		dst[i] = 0xab
	}
}
func (*fakeMem) WriteBlock(uint64, []byte) {}

// testL1 is the least a protocol supplies on top of L1Base.
type testL1 struct {
	L1Base
	handled []MsgType
}

func (l *testL1) SnoopBlock(uint64) ([]byte, bool) { return nil, false }
func (l *testL1) PrewarmStorage()                  {}

var _ Controller = (*testL1)(nil)

// newTestL1 builds core 1 of 4 on a fake network and registers it with
// an engine, which binds the waker the wake-contract tests observe. The
// engine is run past the tick every registration is owed, so it starts
// quiescent (NextDue = WakeNever) at cycle 1.
func newTestL1() (*testL1, *fakeNet, *sim.Engine) {
	net := &fakeNet{}
	l := &testL1{}
	l.Init("test", 1, 4, 3, net, func(now sim.Cycle, m *Msg) { l.handled = append(l.handled, m.Type) })
	e := sim.NewEngine(1 << 20)
	e.Register(l)
	e.RunWindow(3)
	return l, net, e
}

func TestL1BaseWakeContract(t *testing.T) {
	l, net, e := newTestL1()
	if l.Busy() || l.NextWake(1) != sim.WakeNever || e.NextDue() != sim.WakeNever {
		t.Fatalf("fresh L1: busy=%v next=%d engine=%d, want idle and WakeNever", l.Busy(), l.NextWake(1), e.NextDue())
	}
	if got := l.ComponentLabel(); got != "test L1 1" {
		t.Fatalf("label %q", got)
	}

	// A hit completion is the engine's: due there at now+HitLat, while
	// the L1 itself stays idle.
	var got uint64
	l.CompleteVal(4, func(v uint64) { got = v }, 9)
	if l.NextWake(1) != sim.WakeNever || e.NextDue() != 7 || l.Busy() {
		t.Fatalf("hit at 4: NextWake=%d engine=%d busy=%v", l.NextWake(1), e.NextDue(), l.Busy())
	}

	// A delivery wakes the L1 (outside a dispatch: the next cycle);
	// queued work asks for the next cycle.
	l.Deliver(e.Now(), net.msg(MsgInv, 0x40))
	if e.NextDue() != e.Now()+1 {
		t.Fatalf("Deliver did not wake: engine next due %d, now %d", e.NextDue(), e.Now())
	}
	if l.NextWake(2) != 3 {
		t.Fatalf("queued message: NextWake(2)=%d, want 3", l.NextWake(2))
	}
	e.RunWindow(7)
	if len(l.handled) != 1 || l.handled[0] != MsgInv {
		t.Fatalf("handled %v", l.handled)
	}
	if net.pool.Live() != 0 {
		t.Fatalf("delivered message not recycled: live=%d", net.pool.Live())
	}
	if got != 0 || e.NextDue() != 7 {
		t.Fatalf("completion fired early or lost: got=%d engine=%d", got, e.NextDue())
	}
	e.RunWindow(8)
	if got != 9 || l.Busy() || e.NextDue() != sim.WakeNever {
		t.Fatalf("after completion: got=%d busy=%v engine=%d", got, l.Busy(), e.NextDue())
	}
	l.CompleteNext(e.Now(), func() { got = 0 })
	if e.RunWindow(9); got != 0 {
		t.Fatal("CompleteNext did not fire on the next cycle")
	}
}

func TestL1BaseSlotsAndBusy(t *testing.T) {
	l, net, _ := newTestL1()
	var lat []sim.Cycle
	l.MissLatency = func(read bool, c sim.Cycle) {
		if read {
			c = -c
		}
		lat = append(lat, c)
	}

	var got uint64
	l.IssueRead(10, 0x148, func(v uint64) { got = v })
	m, at := net.last()
	if m.Type != MsgGetS || m.Addr != 0x140 || m.Src != L1ID(1) || m.Requestor != L1ID(1) ||
		m.Dst != L2ID(1, 4) || at != 10 {
		t.Fatalf("GetS %s at %d", m, at)
	}
	if !l.Busy() || !l.LoadBlocked(0x80) || l.StoreBlocked(0x80) || !l.StoreBlocked(0x140) {
		t.Fatal("read slot gating wrong")
	}
	data := net.msg(MsgDataOwner, 0x140)
	if _, install := l.PendingRead(11, data); !install {
		t.Fatal("unsquashed owner data must be installable")
	}
	l.SquashRead(0x80) // other block: no effect
	l.SquashRead(0x140)
	if _, install := l.PendingRead(11, data); install {
		t.Fatal("squashed owner-forwarded data must not be installed")
	}
	data.Type = MsgDataS
	if _, install := l.PendingRead(11, data); !install {
		t.Fatal("L2 data is FIFO-fresh even when squashed")
	}
	l.FinishRead(25, 99)
	if got != 99 || l.Rd != nil || l.Busy() {
		t.Fatalf("FinishRead: got=%d rd=%v busy=%v", got, l.Rd, l.Busy())
	}

	var old uint64
	l.IssueWrite(30, WriteTx{WordAddr: 0x208, IsRMW: true, RMWCb: func(v uint64) { old = v }})
	if m, _ := net.last(); m.Type != MsgGetX || m.Addr != 0x200 || m.Dst != L2ID(0, 4) {
		t.Fatalf("GetX %s", m)
	}
	if !l.Busy() || !l.WritePending(0x200) || l.WritePending(0x240) ||
		!l.StoreBlocked(0x80) || l.LoadBlocked(0x80) || !l.LoadBlocked(0x200) {
		t.Fatal("write slot gating wrong")
	}
	l.FinishWrite(42, 7)
	if old != 7 || l.Wr != nil || l.Busy() || l.Stats.RMWLat.Count() != 1 || l.Stats.RMWLat.Sum() != 12 {
		t.Fatalf("FinishWrite: old=%d wr=%v busy=%v rmwlat=%d/%d", old, l.Wr, l.Busy(),
			l.Stats.RMWLat.Sum(), l.Stats.RMWLat.Count())
	}
	if len(lat) != 2 || lat[0] != -15 || lat[1] != 12 {
		t.Fatalf("MissLatency reports %v, want [-15 12]", lat)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "test L1 1 cycle 50") {
			t.Fatalf("stray data response: recovered %v", r)
		}
	}()
	l.PendingRead(50, data)
}

func TestL1BaseEvictBuffer(t *testing.T) {
	l, _, _ := newTestL1()
	a := l.BufferEvict(0x40, []byte{1, 2, 3}, true)
	a.TS, a.TSOwn = 9, true
	if !l.Busy() {
		t.Fatal("buffered eviction must keep the L1 busy until its PutAck")
	}
	if l.ForwardEvicted(0x80) != nil {
		t.Fatal("lookup of an absent block")
	}
	if e := l.ForwardEvicted(0x40); e != a || !e.Transferred {
		t.Fatalf("ForwardEvicted: %+v", e)
	}
	l.ReleaseEvict(0x80) // stale PutAck: ignored
	l.ReleaseEvict(0x40)
	if l.Busy() || len(l.evictFree) != 1 {
		t.Fatalf("after PutAck: busy=%v free=%d", l.Busy(), len(l.evictFree))
	}
	b := l.BufferEvict(0xc0, []byte{7}, false)
	if b != a || len(l.evictFree) != 0 {
		t.Fatal("entry not reused from the free list")
	}
	if len(b.Data) != 1 || b.Data[0] != 7 || b.Dirty || b.TS != 0 || b.TSOwn || b.Transferred {
		t.Fatalf("reused entry carries stale state: %+v", b)
	}
}

func TestProbeTrans(t *testing.T) {
	var p Probe
	p.Trans(0x40, 1, 2) // nil sink: no-op
	var hops [][3]int
	p.Hooks().Transition = func(addr uint64, from, to int) { hops = append(hops, [3]int{int(addr), from, to}) }
	p.Trans(0x40, 1, 1) // self-loop dropped
	p.Trans(0x40, 1, 2)
	if len(hops) != 1 || hops[0] != [3]int{0x40, 1, 2} {
		t.Fatalf("reported %v", hops)
	}
}

// testDir is the least a protocol supplies on top of DirBase.
type testDir struct {
	DirBase
	handled []MsgType
	line    []byte // the one line `filled` hands back; nil = vanished
}

func (d *testDir) SnoopBlock(uint64) ([]byte, bool) { return nil, false }
func (d *testDir) SnoopOwner(uint64) (NodeID, bool) { return 0, false }
func (d *testDir) PrewarmStorage()                  {}
func (d *testDir) filled(uint64) []byte             { return d.line }
func (d *testDir) handle(now sim.Cycle, m *Msg)     { d.handled = append(d.handled, m.Type) }

var _ Directory = (*testDir)(nil)

func newTestDir() (*testDir, *fakeNet, *fakeMem, *sim.Engine) {
	net, mem := &fakeNet{}, &fakeMem{}
	d := &testDir{line: make([]byte, BlockSize)}
	d.Init("test", 2, 4, 5, net, mem, []string{1: "mem-fetch", 2: "await-ack"}, d.handle, d.filled)
	e := sim.NewEngine(1 << 20)
	e.Register(d)
	e.RunWindow(3)
	return d, net, mem, e
}

func TestDirBaseWakeContractAndBusy(t *testing.T) {
	d, net, _, e := newTestDir()
	if d.Busy() || d.NextWake(1) != sim.WakeNever || e.NextDue() != sim.WakeNever {
		t.Fatal("fresh tile not idle")
	}
	if d.ComponentLabel() != "test L2 tile 2" || d.ID != L2ID(2, 4) {
		t.Fatalf("identity: %q id=%d", d.ComponentLabel(), d.ID)
	}
	d.Deliver(e.Now(), net.msg(MsgGetS, 0x80))
	if e.NextDue() != e.Now()+1 || !d.Busy() || d.NextWake(4) != 5 {
		t.Fatalf("Deliver: engine due %d busy=%v NextWake(4)=%d", e.NextDue(), d.Busy(), d.NextWake(4))
	}
	d.Tick(4)
	if len(d.handled) != 1 || d.Busy() || net.pool.Live() != 0 {
		t.Fatalf("Tick: handled=%v busy=%v live=%d", d.handled, d.Busy(), net.pool.Live())
	}

	// An open transaction and a pending timer each keep the tile busy;
	// only the timer gives it a wake of its own.
	tx := d.Txs.New(0x80, 2, nil, 0)
	if !d.Busy() || d.NextWake(4) != sim.WakeNever || d.TxLive() != 1 || d.Tx() != &d.Txs {
		t.Fatal("open transaction accounting wrong")
	}
	d.Txs.Del(0x80, tx, true)
	d.SendAfterAccess(10, Msg{Type: MsgInv, Dst: L1ID(0), Addr: 0x80}, nil)
	if !d.Busy() || d.NextWake(10) != 15 {
		t.Fatalf("delayed send: busy=%v NextWake=%d", d.Busy(), d.NextWake(10))
	}
	d.Tick(14)
	if len(net.sent) != 0 {
		t.Fatal("sent before the access latency elapsed")
	}
	d.Tick(15)
	if m, at := net.last(); m.Type != MsgInv || m.Src != d.ID || at != 15 || d.Busy() {
		t.Fatalf("delayed send: %s at %d busy=%v", m, at, d.Busy())
	}
	net.drop()
	d.Send(20, Msg{Type: MsgTSResetL2, Dst: L1ID(3)}, nil)
	if m, at := net.last(); m.Type != MsgTSResetL2 || m.Src != d.ID || at != 20 {
		t.Fatalf("immediate send: %s at %d", m, at)
	}
}

func TestDirBaseSendPutAckHonoursAckDelay(t *testing.T) {
	d, net, _, _ := newTestDir()
	d.SendPutAck(100, L1ID(1), 0x40)
	d.Tick(105)
	if m, at := net.last(); m.Type != MsgPutAck || m.Dst != L1ID(1) || m.Addr != 0x40 || at != 105 {
		t.Fatalf("nominal PutAck: %s at %d, want cycle 105", m, at)
	}
	net.drop()

	asked := 0
	d.AckDelay = func() sim.Cycle { asked++; return 9 }
	d.SendPutAck(200, L1ID(1), 0x40)
	d.SendAfterAccess(200, Msg{Type: MsgInv, Dst: L1ID(1), Addr: 0x40}, nil)
	d.Tick(205)
	if m, _ := net.last(); len(net.sent) != 1 || m.Type != MsgInv {
		t.Fatalf("at 205 only the later Inv may have left (the reorder the victim profile injects): %v", net.sent)
	}
	d.Tick(213)
	if len(net.sent) != 1 {
		t.Fatal("delayed PutAck left early")
	}
	d.Tick(214)
	if m, at := net.last(); asked != 1 || m.Type != MsgPutAck || at != 214 {
		t.Fatalf("delayed PutAck: asked=%d %s at %d, want one consult and cycle 214", asked, m, at)
	}
}

func TestDirBaseStartFetch(t *testing.T) {
	d, net, mem, _ := newTestDir()
	d.StartFetch(10, 1, net.msg(MsgGetS, 0x100)) // what a handler does on a miss
	if !d.Txs.BusyLine(0x100) || d.NextWake(10) != 10+5+20 {
		t.Fatalf("fetch: busy=%v NextWake=%d, want 35", d.Txs.BusyLine(0x100), d.NextWake(10))
	}
	d.Tick(35)
	if mem.reads != 1 || d.line[0] != 0xab || d.line[BlockSize-1] != 0xab {
		t.Fatal("line not filled from memory")
	}
	if d.Txs.BusyLine(0x100) || d.TxLive() != 0 || len(d.handled) != 1 || d.handled[0] != MsgGetS {
		t.Fatalf("after fill: busy=%v live=%d handled=%v", d.Txs.BusyLine(0x100), d.TxLive(), d.handled)
	}
	if net.pool.Live() != 0 {
		t.Fatalf("request not recycled after re-dispatch: live=%d", net.pool.Live())
	}

	// A fetched line that is gone when the fill fires is a protocol bug,
	// reported with the tile and the firing cycle (not the issue cycle).
	d.line = nil
	d.StartFetch(40, 1, net.msg(MsgGetX, 0x140))
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "test L2 tile 2 cycle 65: fetched line vanished 0x140") {
			t.Fatalf("recovered %q", r)
		}
	}()
	d.Tick(65)
}

func TestDirBaseNamesAndCounters(t *testing.T) {
	d, net, _, _ := newTestDir()
	if d.TxKindName(2) != "await-ack" || d.TxKindName(0) != "kind-0" || d.TxKindName(9) != "kind-9" {
		t.Fatalf("kind names: %q %q %q", d.TxKindName(2), d.TxKindName(0), d.TxKindName(9))
	}
	var decays stats.Counter
	d.AddCounter(&decays, ".decay_events")
	cs := d.ObsCounters()
	if len(cs) != 5 || cs[4] != &decays || decays.Name() != "test.l2.2.decay_events" {
		t.Fatalf("ObsCounters: %d counters, last %q", len(cs), cs[len(cs)-1].Name())
	}
	for _, c := range cs[:4] {
		if !strings.HasPrefix(c.Name(), "test.l2.2.tx_") {
			t.Fatalf("table counter %q lacks the tile prefix", c.Name())
		}
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "test L2 tile 2 cycle 3: stray InvAck") {
			t.Fatalf("recovered %q", r)
		}
	}()
	d.TxFor(3, net.msg(MsgInvAck, 0x40))
}

// TestBasesSteadyStateZeroAlloc: once the inbox, the pool and the timer
// heap have grown to their working size, the Deliver → Tick path of
// both bases allocates nothing.
func TestBasesSteadyStateZeroAlloc(t *testing.T) {
	l, lnet, _ := newTestL1()
	l.handle = func(sim.Cycle, *Msg) {}
	now := sim.Cycle(0)
	l1 := func() {
		now++
		l.Deliver(now, lnet.msg(MsgInv, 0x40))
		l.Tick(now)
	}
	d, dnet, _, _ := newTestDir()
	d.Txs.handle = func(sim.Cycle, *Msg) {}
	dir := func() {
		now++
		d.Deliver(now, dnet.msg(MsgPutS, 0x40))
		d.SendAfterAccess(now, Msg{Type: MsgInv, Dst: L1ID(0), Addr: 0x40}, nil)
		d.Tick(now)
		d.Tick(now + d.AccessLat)
		for _, m := range dnet.sent { // the mesh would deliver and recycle
			dnet.pool.Put(m)
		}
		dnet.drop()
		now += d.AccessLat
	}
	for name, f := range map[string]func(){"L1Base": l1, "DirBase": dir} {
		f() // warm up
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s: steady-state Deliver -> Tick allocates %.1f/op, want 0", name, n)
		}
	}
}
