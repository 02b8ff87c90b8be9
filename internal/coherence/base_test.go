package coherence

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
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
func (n *fakeNet) last() (*Msg, sim.Cycle) { return n.sent[len(n.sent)-1], n.at[len(n.at)-1] }
func (n *fakeNet) drop()                   { n.sent, n.at = n.sent[:0], n.at[:0] }
func (n *fakeNet) msg(t MsgType, addr uint64) *Msg {
	m := n.pool.Get()
	m.Type, m.Addr = t, addr
	return m
}

// fakeMem is a Memory with a fixed latency and a recognisable fill.
type fakeMem struct{ reads, writes int }

func (*fakeMem) Latency(uint64) sim.Cycle { return 20 }
func (f *fakeMem) ReadBlock(_ uint64, dst []byte) {
	f.reads++
	for i := range dst {
		dst[i] = 0xab
	}
}
func (f *fakeMem) WriteBlock(uint64, []byte) { f.writes++ }

// testLine is the least line metadata a protocol brings.
type testLine struct {
	owner OwnerID
	dirty bool
}

func (m testLine) Owner() OwnerID { return m.owner }
func (m testLine) Dirty() bool    { return m.dirty }

// Test state ids: the bases only know 0 (invalid), the fill state, the
// directory's exclusive state and the L1's owned states.
const (
	stShared = 1 // L1: not owned; tile: the fill state
	stOwned  = 2 // L1: owned, clean
	stExcl   = 3 // L1: owned, dirty; tile: an L1 owns the line
)

// hop is one reported transition.
type hop struct {
	addr     uint64
	from, to int
}

// recordHops arms p's legality sink and returns what it receives.
func recordHops(p *Probe) *[]hop {
	var hops []hop
	p.Transition = func(addr uint64, from, to int) { hops = append(hops, hop{addr, from, to}) }
	return &hops
}

// testL1 is the least a protocol supplies on top of L1Base: Shared,
// Excl and Mod states (no SharedRO), and a handler, an evict body, a
// stamp and a downgrade that record what they are handed; the stamp
// puts the metadata's owner on the wire as TS.
type testL1 struct {
	L1Base[testLine]
	handled    []MsgType
	evicted    []hop // tag and state at eviction (to: unused)
	stamped    []testLine
	downgraded []uint64
}

var _ L1Like = (*testL1)(nil)

func (*testL1) Load(sim.Cycle, uint64, func(uint64)) bool { return false }
func (*testL1) Fence(sim.Cycle, func()) bool              { return false }

// newTestL1 builds core 1 of 4 — its array one set of two ways — on a
// fake network and registers it with an engine, which binds the waker
// the wake-contract tests observe. The engine is run past the tick
// every registration is owed, so it starts quiescent (NextDue =
// WakeNever) at cycle 1.
func newTestL1() (*testL1, *fakeNet, *sim.Engine) {
	net := &fakeNet{}
	l := &testL1{}
	sys := config.System{Cores: 4, L1HitLat: 3, L1Size: 2 * config.BlockSize, L1Ways: 2}
	l.Init("test", 1, sys, net, L1Spec[testLine]{
		Shared: stShared, Excl: stOwned, Mod: stExcl,
		Handle: func(now sim.Cycle, m *Msg) { l.handled = append(l.handled, m.Type) },
		Evict: func(now sim.Cycle, w *memsys.Way[testLine]) {
			l.evicted = append(l.evicted, hop{w.Tag, int(w.State), 0})
		},
		Stamp: func(m *Msg, meta *testLine) {
			l.stamped = append(l.stamped, *meta)
			m.TS = uint32(meta.owner)
		},
		Downgrade: func(w *memsys.Way[testLine]) {
			l.downgraded = append(l.downgraded, w.Tag)
			l.Set(w, stShared)
		},
	})
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
	l.Deliver(e.Now(), net.msg(MsgTSResetL1, 0))
	if e.NextDue() != e.Now()+1 {
		t.Fatalf("Deliver did not wake: engine next due %d, now %d", e.NextDue(), e.Now())
	}
	if l.NextWake(2) != 3 {
		t.Fatalf("queued message: NextWake(2)=%d, want 3", l.NextWake(2))
	}
	e.RunWindow(7)
	if len(l.handled) != 1 || l.handled[0] != MsgTSResetL1 {
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

// TestL1BaseSlotsAndBusy: a read miss and a write miss each hold their
// slot, gating what the core may issue next, until the response that
// completes them; completion reports the miss latency, frees the slot
// and hands the core its value. Owner-forwarded data an Inv overtook is
// not installed; the L2's own data is. A data response no read awaits
// is a protocol bug.
func TestL1BaseSlotsAndBusy(t *testing.T) {
	l, net, _ := newTestL1()
	var lat []sim.Cycle
	l.MissLatency = func(read bool, c sim.Cycle) {
		if read {
			c = -c
		}
		lat = append(lat, c)
	}
	respond := func(now sim.Cycle, typ MsgType, addr uint64, v byte) {
		m := net.msg(typ, addr)
		m.Src, m.Data = L2ID(1, 4), block(v)
		l.Deliver(now, m)
		l.Tick(now)
	}

	var got uint64
	l.IssueRead(10, 0x148, func(v uint64) { got = v })
	m, at := net.last()
	if m.Type != MsgGetS || m.Addr != 0x140 || m.Src != L1ID(1) || m.Requestor != L1ID(1) ||
		m.Dst != L2ID(1, 4) || at != 10 {
		t.Fatalf("GetS %s at %d", m, at)
	}
	if !l.Busy() || !l.LoadBlocked(0x80) || l.StoreBlocked(0x80) || !l.StoreBlocked(0x148) {
		t.Fatal("read slot gating wrong")
	}
	l.inv(11, net.msg(MsgInv, 0x80)) // other block: no effect
	l.inv(11, net.msg(MsgInv, 0x140))
	respond(25, MsgDataOwner, 0x140, 2)
	if got != 0x0202020202020202 || l.Rd != nil || l.Busy() || l.Cache.Peek(0x140) != nil {
		t.Fatalf("squashed owner data: got=%#x rd=%v busy=%v installed=%v", got, l.Rd, l.Busy(), l.Cache.Peek(0x140) != nil)
	}
	l.IssueRead(26, 0x148, func(v uint64) { got = v })
	l.inv(27, net.msg(MsgInv, 0x140))
	respond(28, MsgDataS, 0x140, 3)
	if w := l.Cache.Peek(0x140); got != 0x0303030303030303 || w == nil || w.State != stShared {
		t.Fatal("L2 data is FIFO-fresh even when squashed: it must be installed")
	}

	var old uint64
	l.RMW(30, 0x208, func(v uint64) (uint64, bool) { return v + 1, true }, func(v uint64) { old = v })
	if m, _ := net.last(); m.Type != MsgGetX || m.Addr != 0x200 || m.Dst != L2ID(0, 4) {
		t.Fatalf("GetX %s", m)
	}
	if !l.Busy() || !l.WritePending(0x200) || l.WritePending(0x240) ||
		!l.StoreBlocked(0x80) || l.LoadBlocked(0x80) || !l.LoadBlocked(0x210) {
		t.Fatal("write slot gating wrong")
	}
	respond(42, MsgDataE, 0x200, 7)
	if m, _ := net.last(); m.Type != MsgAck || m.Addr != 0x200 || m.Dst != L2ID(0, 4) {
		t.Fatalf("grant not acknowledged: %s", m)
	}
	if old != 0x0707070707070707 || l.Wr != nil || l.Busy() || l.Stats.RMWLat.Count() != 1 || l.Stats.RMWLat.Sum() != 12 {
		t.Fatalf("write completion: old=%#x wr=%v busy=%v rmwlat=%d/%d", old, l.Wr, l.Busy(),
			l.Stats.RMWLat.Sum(), l.Stats.RMWLat.Count())
	}
	if len(lat) != 3 || lat[0] != -15 || lat[1] != -2 || lat[2] != 12 {
		t.Fatalf("MissLatency reports %v, want [-15 -2 12]", lat)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "test L1 1 cycle 50: data response without read tx") {
			t.Fatalf("stray data response: recovered %v", r)
		}
	}()
	respond(50, MsgDataS, 0x140, 1)
}

// TestL1BaseFillStates: a read fill installs in the state its type maps
// to and is shown to Filled; a Shared fill with Shared 0 completes the
// load without installing; with SharedRO 0 a DataSRO is the protocol's
// message, not a fill.
func TestL1BaseFillStates(t *testing.T) {
	l, net, _ := newTestL1()
	var filled []uint64
	l.p.Filled = func(w *memsys.Way[testLine], m *Msg) { filled = append(filled, w.Tag) }
	respond := func(now sim.Cycle, typ MsgType, addr uint64) {
		m := net.msg(typ, addr)
		m.Data = block(1)
		l.Deliver(now, m)
		l.Tick(now)
	}
	for i, c := range []struct {
		typ   MsgType
		state uint8
	}{{MsgDataE, stOwned}, {MsgDataS, stShared}, {MsgDataOwner, stShared}} {
		addr := uint64(0x40 * i)
		l.IssueRead(sim.Cycle(10*i), addr, func(uint64) {})
		respond(sim.Cycle(10*i+1), c.typ, addr)
		if w := l.Cache.Peek(addr); w == nil || w.State != c.state || len(filled) != i+1 || filled[i] != addr {
			t.Fatalf("%s: installed %v, filled %v", c.typ, w != nil, filled)
		}
	}
	l.p.Shared = 0
	l.IssueRead(40, 0x100, func(uint64) {})
	respond(41, MsgDataS, 0x100)
	if l.Cache.Peek(0x100) != nil || len(filled) != 3 || l.Rd != nil {
		t.Fatal("Shared 0: the fill must complete the load uncached")
	}
	respond(42, MsgDataSRO, 0x100)
	if len(l.handled) != 1 || l.handled[0] != MsgDataSRO {
		t.Fatalf("SharedRO 0: DataSRO handled by the protocol %v", l.handled)
	}
}

// TestL1BaseEvictBuffer: an owned victim is parked with its data and
// metadata until its PutAck and announced with a PutM carrying the data
// (a clean one with a PutE); a forward that crossed the Put is served
// from the entry, handing stamp the buffered metadata; the PutAck
// recycles the entry, and its reuse carries nothing of the line it held
// before.
func TestL1BaseEvictBuffer(t *testing.T) {
	l, net, _ := newTestL1()
	w := l.Install(1, 0x40, block(1))
	l.Set(w, stExcl)
	w.Meta = testLine{owner: 9, dirty: true}
	l.evict(2, w)
	a := l.evictBuf[0x40]
	if m, _ := net.last(); m.Type != MsgPutM || !m.Dirty || m.Dst != L2ID(1, 4) || m.TS != 9 || m.Data[0] != 1 {
		t.Fatalf("owned dirty victim: %s dirty=%v", m, m.Dirty)
	}
	if a == nil || a.Meta != (testLine{owner: 9, dirty: true}) || !a.Dirty || !l.Busy() {
		t.Fatal("buffered eviction must hold the line until its PutAck and keep the L1 busy")
	}

	net.drop()
	l.stamped = nil
	fwd := net.msg(MsgFwdGetS, 0x40)
	fwd.Src, fwd.Requestor = L2ID(1, 4), L1ID(2)
	l.Deliver(3, fwd)
	l.Tick(3)
	if len(net.sent) != 2 || net.sent[0].Type != MsgDataOwner || net.sent[0].Dst != L1ID(2) ||
		net.sent[1].Type != MsgWBData || !net.sent[1].NoCopy || !net.sent[1].Dirty || net.sent[1].Data[0] != 1 {
		t.Fatalf("forward across the Put: sent %v", net.sent)
	}
	if len(l.stamped) != 2 || l.stamped[0] != (testLine{owner: 9, dirty: true}) || l.stamped[1] != l.stamped[0] ||
		!a.Transferred || len(l.downgraded) != 0 {
		t.Fatalf("stamp saw %v, transferred=%v, downgraded %v", l.stamped, a.Transferred, l.downgraded)
	}

	l.releaseEvict(0x80) // stale PutAck: ignored
	l.releaseEvict(0x40)
	if l.Busy() || len(l.evictFree) != 1 {
		t.Fatalf("after PutAck: busy=%v free=%d", l.Busy(), len(l.evictFree))
	}
	net.drop()
	b := l.Install(4, 0x80, block(7))
	l.Set(b, stOwned)
	l.evict(4, b)
	if m, _ := net.last(); m.Type != MsgPutE || m.Dirty || len(m.Data) != 0 {
		t.Fatalf("owned clean victim: %s", m)
	}
	if e := l.evictBuf[0x80]; e != a || len(l.evictFree) != 0 {
		t.Fatal("entry not reused from the free list")
	}
	if a.Data[0] != 7 || a.Dirty || a.Meta != (testLine{}) || a.Transferred {
		t.Fatalf("reused entry carries stale state: %+v", a)
	}
}

// TestL1BaseDebugEvictOrder: with several owned victims awaiting their
// PutAck, the deadlock report lists the evict entries in address order,
// so two dumps of the same state are the same string.
func TestL1BaseDebugEvictOrder(t *testing.T) {
	l, _, _ := newTestL1()
	for i, addr := range []uint64{0x100, 0x40, 0xc0, 0x80, 0x140} {
		w := l.Install(sim.Cycle(i+1), addr, block(byte(i)))
		l.Set(w, stExcl)
	}
	if len(l.evictBuf) != 3 {
		t.Fatalf("%d evictions buffered, want 3", len(l.evictBuf))
	}
	want := l.Debug()
	for i := 0; i < 20; i++ {
		if got := l.Debug(); got != want {
			t.Fatalf("Debug differs between calls:\n%s\n%s", want, got)
		}
	}
	i40, i100, ic0 := strings.Index(want, "evict=0x40("), strings.Index(want, "evict=0x100("), strings.Index(want, "evict=0xc0(")
	if i40 < 0 || ic0 < i40 || i100 < ic0 {
		t.Fatalf("evict entries not in address order: %s", want)
	}
}

// TestL1BaseOwnerSide: an owned line answers a forwarded GetS with data
// to the requester and the home tile, then downgrades; a forwarded GetX
// with data to the requester, dropping the line; a recall with a
// writeback. Each message is stamped from the line's metadata. An Inv
// for a copy the L1 does not own drops it and is acknowledged, as is
// one for an absent line; a forward for a line the L1 does not own is
// a protocol bug.
func TestL1BaseOwnerSide(t *testing.T) {
	l, net, _ := newTestL1()
	hops := recordHops(&l.Probe)
	deliver := func(typ MsgType, addr uint64) {
		m := net.msg(typ, addr)
		m.Src, m.Requestor = L2ID(3, 4), L1ID(2)
		l.Deliver(5, m)
		l.Tick(5)
	}
	w := l.Install(1, 0x40, block(3))
	l.Set(w, stExcl)
	w.Meta.owner = 6

	deliver(MsgFwdGetS, 0x40)
	if len(net.sent) != 2 || net.sent[0].Type != MsgDataOwner || net.sent[0].Dst != L1ID(2) || net.sent[0].Owner != l.ID ||
		net.sent[1].Type != MsgWBData || net.sent[1].Dst != L2ID(1, 4) || !net.sent[1].Dirty || net.sent[1].NoCopy ||
		net.sent[1].TS != 6 || net.sent[1].Data[0] != 3 {
		t.Fatalf("FwdGetS: sent %v", net.sent)
	}
	if len(l.downgraded) != 1 || w.State != stShared || len(l.stamped) != 2 {
		t.Fatalf("FwdGetS: downgraded %v, state %d, stamped %v", l.downgraded, w.State, l.stamped)
	}

	net.drop()
	l.Set(w, stOwned)
	deliver(MsgFwdGetX, 0x40)
	if len(net.sent) != 1 || net.sent[0].Type != MsgDataOwner || net.sent[0].Dirty || net.sent[0].TS != 6 || w.Valid {
		t.Fatalf("FwdGetX: sent %v, valid=%v", net.sent, w.Valid)
	}

	net.drop()
	w = l.Install(6, 0x40, block(4))
	l.Set(w, stOwned)
	deliver(MsgInv, 0x40)
	if len(net.sent) != 1 || net.sent[0].Type != MsgWBData || net.sent[0].Dst != L2ID(3, 4) || net.sent[0].Dirty || w.Valid {
		t.Fatalf("recall: sent %v, valid=%v", net.sent, w.Valid)
	}

	net.drop()
	w = l.Install(7, 0x40, block(5))
	l.Set(w, stShared)
	deliver(MsgInv, 0x40)
	deliver(MsgInv, 0x80)
	if len(net.sent) != 2 || net.sent[0].Type != MsgInvAck || net.sent[1].Type != MsgInvAck ||
		net.sent[0].Dst != L2ID(3, 4) || w.Valid || l.Stats.InvalidationsReceived.Value() != 3 {
		t.Fatalf("Inv of a shared and an absent line: sent %v, valid=%v", net.sent, w.Valid)
	}
	want := []hop{{0x40, 0, stExcl}, {0x40, stExcl, stShared}, {0x40, stShared, stOwned}, {0x40, stOwned, 0},
		{0x40, 0, stOwned}, {0x40, stOwned, 0}, {0x40, 0, stShared}, {0x40, stShared, 0}}
	if len(*hops) != len(want) {
		t.Fatalf("hops %v, want %v", *hops, want)
	}
	for i := range want {
		if (*hops)[i] != want[i] {
			t.Fatalf("hops %v, want %v", *hops, want)
		}
	}

	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "test L1 1 cycle 5: FwdGetX for absent line") {
			t.Fatalf("recovered %q", r)
		}
	}()
	w = l.Install(8, 0x40, block(6))
	l.Set(w, stShared)
	deliver(MsgFwdGetX, 0x40)
}

// block returns a data block filled with v.
func block(v byte) []byte {
	b := make([]byte, config.BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

// TestL1BaseInstall: a present line is refilled in place, keeping its
// state and way; a miss in a full set evicts the LRU way through the
// protocol's evict body — which still sees the line's state — drops it
// with its hop reported, and reuses the way for the new line. (An owned
// victim the base evicts itself: TestL1BaseEvictBuffer.)
func TestL1BaseInstall(t *testing.T) {
	l, _, _ := newTestL1()
	hops := recordHops(&l.Probe)
	a := l.Install(5, 0x48, block(1))
	if a.Tag != 0x40 || !a.Valid || a.State != 0 || l.Cache.Block(a)[0] != 1 {
		t.Fatalf("fresh install: tag %#x valid %v state %d", a.Tag, a.Valid, a.State)
	}
	l.Set(a, stOwned)
	b := l.Install(5, 0x80, block(2))
	l.Set(b, stShared)

	if w := l.Install(6, 0x40, block(7)); w != a || a.State != stOwned || l.Cache.Block(a)[0] != 7 {
		t.Fatalf("refill in place: way %p (want %p) state %d data %d", w, a, a.State, l.Cache.Block(a)[0])
	}
	if len(l.evicted) != 0 {
		t.Fatalf("refill evicted %v", l.evicted)
	}

	l.Cache.Lookup(0x40) // b is now the LRU way
	*hops = nil
	c := l.Install(7, 0xc0, block(9))
	if c != b || c.Tag != 0xc0 || c.State != 0 || l.Cache.Block(c)[0] != 9 {
		t.Fatalf("victim install: way %p (want %p) tag %#x state %d", c, b, c.Tag, c.State)
	}
	if len(l.evicted) != 1 || l.evicted[0] != (hop{0x80, stShared, 0}) {
		t.Fatalf("evict body saw %v, want the LRU line 0x80 in its state", l.evicted)
	}
	if len(*hops) != 1 || (*hops)[0] != (hop{0x80, stShared, 0}) {
		t.Fatalf("hops %v, want the victim's drop", *hops)
	}
	if l.Cache.Peek(0x80) != nil || l.Cache.Peek(0x40) != a {
		t.Fatal("wrong line left the set")
	}
}

// TestL1BaseSelfEvicts: without the evict profile a hit stays a hit; a
// firing fault evicts the line through the evict body; a pinned way is
// exempt without consulting the fault.
func TestL1BaseSelfEvicts(t *testing.T) {
	l, _, _ := newTestL1()
	w := l.Install(1, 0x40, block(1))
	l.Set(w, stShared)
	if l.SelfEvicts(1, w) {
		t.Fatal("self-eviction without an evict fault")
	}
	asked := 0
	l.EvictFault = func() bool { asked++; return true }
	w.Busy = true
	if l.SelfEvicts(2, w) || asked != 0 {
		t.Fatalf("pinned way: evicted or consulted (%d)", asked)
	}
	w.Busy = false
	if !l.SelfEvicts(3, w) || asked != 1 || w.Valid || len(l.evicted) != 1 || l.evicted[0] != (hop{0x40, stShared, 0}) {
		t.Fatalf("fault: asked=%d valid=%v evicted=%v", asked, w.Valid, l.evicted)
	}
}

// TestSetReportsExactlyTheHops: the state setter reports every hop and
// no self-loop, in protocol state ids, and writes the state whether or
// not a sink is armed.
func TestSetReportsExactlyTheHops(t *testing.T) {
	l, _, _ := newTestL1()
	w := l.Install(1, 0x40, block(0))
	l.Set(w, stShared) // no sink: state still written
	if w.State != stShared {
		t.Fatalf("state %d", w.State)
	}
	hops := recordHops(&l.Probe)
	l.Set(w, stShared)
	l.Set(w, stExcl)
	l.Set(w, stExcl)
	l.Set(w, stOwned)
	l.Drop(w)
	want := []hop{{0x40, stShared, stExcl}, {0x40, stExcl, stOwned}, {0x40, stOwned, 0}}
	if len(*hops) != len(want) {
		t.Fatalf("hops %v, want %v", *hops, want)
	}
	for i := range want {
		if (*hops)[i] != want[i] {
			t.Fatalf("hops %v, want %v", *hops, want)
		}
	}
	if w.Valid || w.State != 0 {
		t.Fatalf("after Drop: valid=%v state=%d", w.Valid, w.State)
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

// testDir is the least a protocol supplies on top of DirBase: a handler
// that routes requests and Puts through the front ends and records the
// lines they hand back, and a recall body that invalidates nRecall L1
// copies. With grant set, a served GetX opens an exclusive grant, whose
// Ack (like a forwarded GetX's) makes the requester the owner, and a
// forwarded GetS's WBData leaves the line in the fill state.
type testDir struct {
	DirBase[testLine]
	handled  []MsgType
	served   []uint64 // lines the front ends returned for protocol work
	recalled []uint64
	nRecall  int
	grant    bool
}

var _ Directory = (*testDir)(nil)

func (d *testDir) handle(now sim.Cycle, m *Msg) {
	d.handled = append(d.handled, m.Type)
	var w *memsys.Way[testLine]
	switch m.Type {
	case MsgGetS, MsgGetX:
		if w = d.OnRequest(now, m); w != nil && d.grant && m.Type == MsgGetX {
			d.Begin(w, TxAwaitAck, m, 0)
		}
	case MsgPutE, MsgPutM:
		w = d.OnPut(now, m)
	case MsgInvAck:
		_, w = d.OnInvAck(now, m)
	case MsgWBData:
		var tx *Tx
		if tx, w = d.OnWBData(now, m); tx != nil && d.grant {
			d.Set(w, stShared)
			d.Retire(now, w, tx)
		}
	case MsgAck:
		var tx *Tx
		tx, w = d.OnAck(now, m)
		d.Set(w, stExcl)
		w.Meta.owner = OwnerID(tx.Req.Requestor)
		d.Retire(now, w, tx)
	}
	if w != nil {
		d.served = append(d.served, w.Tag)
	}
}

// busyLine reports whether a transaction is in flight for addr.
func (d *testDir) busyLine(addr uint64) bool {
	_, busy := d.Txs.Get(addr)
	return busy
}

func (d *testDir) recall(now sim.Cycle, w *memsys.Way[testLine]) int {
	d.recalled = append(d.recalled, w.Tag)
	return d.nRecall
}

// newTestDir builds tile 2 of 4 — one set of two ways, access latency
// 5, memory latency 20 — registered with an engine like newTestL1.
func newTestDir() (*testDir, *fakeNet, *fakeMem, *sim.Engine) {
	net, mem := &fakeNet{}, &fakeMem{}
	d := &testDir{}
	sys := config.System{Cores: 4, L2AccessLat: 5, L2TileSize: 2 * config.BlockSize, L2Ways: 2}
	d.Init("test", 2, sys, net, mem, "inv-test", stExcl, stShared, testLine{owner: -1}, d.handle, d.recall)
	e := sim.NewEngine(1 << 20)
	e.Register(d)
	e.RunWindow(3)
	return d, net, mem, e
}

// stage installs addr directly in state s, owned by owner.
func (d *testDir) stage(addr uint64, s uint8, owner NodeID) *memsys.Way[testLine] {
	w := d.Cache.Victim(addr)
	d.Cache.Install(w, addr)
	d.Set(w, s)
	w.Meta.owner = OwnerID(owner)
	return w
}

func TestDirBaseWakeContractAndBusy(t *testing.T) {
	d, net, _, e := newTestDir()
	if d.Busy() || d.NextWake(1) != sim.WakeNever || e.NextDue() != sim.WakeNever {
		t.Fatal("fresh tile not idle")
	}
	if d.ComponentLabel() != "test L2 tile 2" || d.ID != L2ID(2, 4) {
		t.Fatalf("identity: %q id=%d", d.ComponentLabel(), d.ID)
	}
	d.Deliver(e.Now(), net.msg(MsgPutS, 0x80))
	if e.NextDue() != e.Now()+1 || !d.Busy() || d.NextWake(4) != 5 {
		t.Fatalf("Deliver: engine due %d busy=%v NextWake(4)=%d", e.NextDue(), d.Busy(), d.NextWake(4))
	}
	d.Tick(4)
	if len(d.handled) != 1 || d.Busy() || net.pool.Live() != 0 {
		t.Fatalf("Tick: handled=%v busy=%v live=%d", d.handled, d.Busy(), net.pool.Live())
	}

	// An open transaction and a pending timer each keep the tile busy;
	// only the timer gives it a wake of its own.
	tx := d.Txs.New(0x80, TxAwaitAck, nil, 0)
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

// TestDirBaseStartFetch: a request that misses claims a way and fetches
// the line; the fill puts it in the fill state with the fill metadata
// and re-dispatches the request, which the protocol then serves.
func TestDirBaseStartFetch(t *testing.T) {
	d, net, mem, _ := newTestDir()
	hops := recordHops(&d.Probe)
	d.Deliver(10, net.msg(MsgGetS, 0x100))
	d.Tick(10)
	w := d.Cache.Peek(0x100)
	if w == nil || !w.Busy || w.State != 0 || !d.busyLine(0x100) || d.NextWake(10) != 10+5+20 || len(d.served) != 0 {
		t.Fatalf("fetch: way %v busy=%v NextWake=%d served=%v, want a busy way and a fill at 35",
			w != nil, d.busyLine(0x100), d.NextWake(10), d.served)
	}
	d.Tick(35)
	if mem.reads != 1 || d.Cache.Block(w)[0] != 0xab || d.Cache.Block(w)[config.BlockSize-1] != 0xab {
		t.Fatal("line not filled from memory")
	}
	if w.Busy || w.State != stShared || w.Meta.owner != -1 || len(*hops) != 1 || (*hops)[0] != (hop{0x100, 0, stShared}) {
		t.Fatalf("after fill: busy=%v state=%d owner=%d hops=%v", w.Busy, w.State, w.Meta.owner, *hops)
	}
	if d.busyLine(0x100) || d.TxLive() != 0 || len(d.handled) != 2 || len(d.served) != 1 || d.served[0] != 0x100 {
		t.Fatalf("after fill: busy=%v live=%d handled=%v served=%v", d.busyLine(0x100), d.TxLive(), d.handled, d.served)
	}
	if net.pool.Live() != 0 {
		t.Fatalf("request not recycled after re-dispatch: live=%d", net.pool.Live())
	}

	// A fetched line that is gone when the fill fires is a protocol bug,
	// reported with the tile and the firing cycle (not the issue cycle).
	d.Deliver(40, net.msg(MsgGetX, 0x140))
	d.Tick(40)
	d.Cache.Invalidate(d.Cache.Peek(0x140))
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "test L2 tile 2 cycle 65: fetched line vanished 0x140") {
			t.Fatalf("recovered %q", r)
		}
	}()
	d.Tick(65)
}

// TestDirBaseRequestRetries walks a miss in a full set through each
// retry the front end owes it: every way busy, a transaction active in
// the set, and a victim whose recall has just started; then the
// recall's acks finish the eviction — writing the dirty victim back —
// and the retried request fetches into the freed way.
func TestDirBaseRequestRetries(t *testing.T) {
	d, net, mem, _ := newTestDir()
	a := d.stage(0x40, stShared, 0) // the LRU way
	b := d.stage(0x80, stShared, 0)
	a.Busy, b.Busy = true, true
	hops := recordHops(&d.Probe)
	now := sim.Cycle(10)
	request := func() {
		now++
		d.Deliver(now, net.msg(MsgGetS, 0xc0))
		d.Tick(now)
	}

	request()
	if d.Txs.Retries.Value() != 1 || len(d.recalled) != 0 || d.NextWake(now) != now+1 {
		t.Fatalf("all ways busy: retries=%d recalled=%v NextWake=%d", d.Txs.Retries.Value(), d.recalled, d.NextWake(now))
	}

	b.Busy = false // b is now the valid victim, but a still holds a transaction in the set
	d.Tick(now + 1)
	now++
	if d.Txs.Retries.Value() != 2 || len(d.recalled) != 0 {
		t.Fatalf("AnyBusy: retries=%d recalled=%v", d.Txs.Retries.Value(), d.recalled)
	}

	a.Busy = false // both idle: a (LRU) is recalled, the request retries behind it
	d.nRecall = 2
	a.Meta.dirty = true
	d.Tick(now + 1)
	now++
	if d.Txs.Retries.Value() != 3 || len(d.recalled) != 1 || d.recalled[0] != 0x40 || !a.Busy {
		t.Fatalf("eviction started: retries=%d recalled=%v busy=%v", d.Txs.Retries.Value(), d.recalled, a.Busy)
	}
	if tx, ok := d.Txs.Get(0x40); !ok || tx.Kind != TxEvict || tx.AcksLeft != 2 {
		t.Fatal("no eviction transaction counting two acks")
	}

	// While the eviction runs, the retried request keeps retrying (the
	// set is busy); each InvAck counts down and the last finishes it.
	for i, want := range []bool{true, false} {
		now++
		d.Deliver(now, net.msg(MsgInvAck, 0x40))
		d.Tick(now)
		if d.busyLine(0x40) != want {
			t.Fatalf("InvAck %d: eviction pending=%v, want %v", i+1, !want, want)
		}
	}
	if mem.writes != 1 || d.Cache.Peek(0x40) != nil || len(*hops) != 1 || (*hops)[0] != (hop{0x40, stShared, 0}) {
		t.Fatalf("eviction finished: writes=%d present=%v hops=%v", mem.writes, d.Cache.Peek(0x40) != nil, *hops)
	}
	now++
	d.Tick(now)
	if w := d.Cache.Peek(0xc0); w != a || !w.Busy || !d.busyLine(0xc0) {
		t.Fatal("retried request did not fetch into the freed way")
	}

	// A request for a line with a transaction in flight parks behind it.
	now++
	d.Deliver(now, net.msg(MsgGetX, 0xc0))
	d.Tick(now)
	if d.Txs.Waits.Value() != 1 {
		t.Fatalf("request to a busy line: waits=%d", d.Txs.Waits.Value())
	}

	// A victim with no L1 copy to recall goes synchronously, clean
	// lines without a writeback.
	d2, net2, mem2, _ := newTestDir()
	d2.stage(0x40, stShared, 0)
	d2.stage(0x80, stShared, 0)
	d2.Deliver(1, net2.msg(MsgGetS, 0xc0))
	d2.Tick(1)
	if d2.Txs.Retries.Value() != 0 || d2.Cache.Peek(0x40) != nil || !d2.busyLine(0xc0) || mem2.writes != 0 {
		t.Fatalf("synchronous eviction: retries=%d victim present=%v fetching=%v writes=%d",
			d2.Txs.Retries.Value(), d2.Cache.Peek(0x40) != nil, d2.busyLine(0xc0), mem2.writes)
	}
}

// TestDirBaseOwnerSide: a request for a line an L1 owns is forwarded
// to the owner, as a FwdGetS or FwdGetX transaction, without reaching
// the protocol; an owned victim is recalled from its owner by the base,
// not the recall body, and the owner's dirty WBData finishes the
// eviction with a writeback. A request from the owner itself is a
// protocol bug.
func TestDirBaseOwnerSide(t *testing.T) {
	d, net, mem, _ := newTestDir()
	a := d.stage(0x40, stExcl, L1ID(3)) // the LRU way
	d.stage(0x80, stExcl, L1ID(2))
	request := func(now sim.Cycle, typ MsgType, addr uint64, from NodeID) {
		m := net.msg(typ, addr)
		m.Src, m.Requestor = from, from
		d.Deliver(now, m)
		d.Tick(now)
		d.Tick(now + d.AccessLat)
	}
	for i, c := range []struct {
		req, fwd MsgType
		kind     int
		addr     uint64
		owner    NodeID
	}{
		{MsgGetS, MsgFwdGetS, TxFwdGetS, 0x40, L1ID(3)},
		{MsgGetX, MsgFwdGetX, TxFwdGetX, 0x80, L1ID(2)},
	} {
		request(sim.Cycle(10*i+10), c.req, c.addr, L1ID(1))
		m, _ := net.last()
		tx, ok := d.Txs.Get(c.addr)
		if m.Type != c.fwd || m.Dst != c.owner || m.Requestor != L1ID(1) || m.Addr != c.addr ||
			!ok || tx.Kind != c.kind || !d.Cache.Peek(c.addr).Busy || len(d.served) != 0 {
			t.Fatalf("%s to an owned line: sent %s, tx %v, served %v", c.req, m, tx, d.served)
		}
		d.Txs.Del(c.addr, tx, true)
		d.Cache.Peek(c.addr).Busy = false
	}

	net.drop()
	a.Meta.dirty = false
	request(30, MsgGetS, 0xc0, L1ID(1))
	if m, _ := net.last(); len(net.sent) != 1 || m.Type != MsgInv || m.Dst != L1ID(3) || m.Addr != 0x40 || len(d.recalled) != 0 {
		t.Fatalf("owned victim: sent %v, recall body saw %v", net.sent, d.recalled)
	}
	if tx, ok := d.Txs.Get(0x40); !ok || tx.Kind != TxEvict || tx.AcksLeft != 1 {
		t.Fatal("no eviction transaction waiting for the owner's writeback")
	}
	wb := net.msg(MsgWBData, 0x40)
	wb.Src, wb.Dirty, wb.Data = L1ID(3), true, block(8)
	d.Deliver(40, wb)
	d.Tick(40)
	if mem.writes != 1 || d.Cache.Peek(0x40) != nil || d.busyLine(0x40) {
		t.Fatalf("recall answered: writes=%d present=%v", mem.writes, d.Cache.Peek(0x40) != nil)
	}

	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "test L2 tile 2 cycle 50: GetX from current owner") {
			t.Fatalf("recovered %q", r)
		}
	}()
	request(50, MsgGetX, 0x80, L1ID(2))
}

// TestDirBasePutFrontEnd: every Put the front end does not park is
// acknowledged; only the current owner's is handed to the protocol,
// with PutM's data taken.
func TestDirBasePutFrontEnd(t *testing.T) {
	d, net, _, _ := newTestDir()
	w := d.stage(0x40, stExcl, L1ID(1))
	put := func(now sim.Cycle, typ MsgType, addr uint64, src NodeID) {
		m := net.msg(typ, addr)
		m.Src = src
		if typ == MsgPutM {
			m.Data = block(5)
		}
		d.Deliver(now, m)
		d.Tick(now)
	}
	acks := func(now sim.Cycle) (n int) {
		d.Tick(now + 5)
		for _, m := range net.sent {
			if m.Type == MsgPutAck {
				n++
			}
			net.pool.Put(m) // the mesh would deliver and recycle
		}
		net.drop()
		return n
	}

	put(10, MsgPutE, 0x40, L1ID(2)) // not the owner: stale
	put(10, MsgPutE, 0x80, L1ID(1)) // line absent: stale
	if n := acks(10); n != 2 || len(d.served) != 0 || w.State != stExcl {
		t.Fatalf("stale Puts: %d acks, served %v, state %d", n, d.served, w.State)
	}
	d.Set(w, stShared)
	put(20, MsgPutE, 0x40, L1ID(1)) // no longer exclusive: stale
	if n := acks(20); n != 1 || len(d.served) != 0 {
		t.Fatalf("Put of a non-exclusive line: %d acks, served %v", n, d.served)
	}

	d.Set(w, stExcl)
	tx := d.Begin(w, TxAwaitAck, nil, 0)
	put(30, MsgPutM, 0x40, L1ID(1)) // busy line: parked, not acked
	if n := acks(30); n != 0 || d.Txs.Waits.Value() != 1 {
		t.Fatalf("Put behind a busy line: %d acks, waits %d", n, d.Txs.Waits.Value())
	}
	d.Retire(40, w, tx) // re-dispatches the parked PutM: the owner's own
	if n := acks(40); n != 1 || len(d.served) != 1 || d.served[0] != 0x40 || d.Cache.Block(w)[0] != 5 {
		t.Fatalf("owner's PutM: %d acks, served %v, data %d", n, d.served, d.Cache.Block(w)[0])
	}
	if net.pool.Live() != 0 {
		t.Fatalf("messages leaked: %d", net.pool.Live())
	}
}

// TestDirBaseBusyMatchesTxTable walks a tile through a fetch, its
// fill, an exclusive grant and its Ack; a forward; an eviction with a
// recall; and a request parked behind a fetch, kept across the fill's
// re-dispatch and drained when the grant retires. After every tick each
// valid way is busy exactly while the table holds a transaction in
// flight for its line, and no absent line has one.
func TestDirBaseBusyMatchesTxTable(t *testing.T) {
	d, net, _, _ := newTestDir()
	d.grant, d.nRecall = true, 1
	now := sim.Cycle(10)
	advance := func(what string, cycles int) {
		for ; cycles > 0; cycles-- {
			d.Tick(now)
			for _, a := range []uint64{0x40, 0x80, 0xc0} {
				w, busy := d.Cache.Peek(a), d.busyLine(a)
				if w == nil && busy || w != nil && w.Busy != busy {
					t.Fatalf("%s, cycle %d: line %#x present=%v way busy=%v, table busy=%v",
						what, now, a, w != nil, w != nil && w.Busy, busy)
				}
			}
			for _, m := range net.sent { // the mesh would deliver and recycle
				net.pool.Put(m)
			}
			net.drop()
			now++
		}
	}
	deliver := func(typ MsgType, addr uint64, src NodeID) {
		m := net.msg(typ, addr)
		m.Src, m.Requestor = src, src
		d.Deliver(now, m)
		advance(fmt.Sprintf("%s %#x from %d", typ, addr, src), 1)
	}
	inFlight := func(what string, addr uint64, kind int) {
		if tx, busy := d.Txs.Get(addr); !busy || tx.Kind != kind {
			t.Fatalf("%s: line %#x busy=%v, want a transaction of kind %d", what, addr, busy, kind)
		}
	}

	deliver(MsgGetX, 0x40, L1ID(1))
	inFlight("fetch", 0x40, TxMemFetch)
	advance("fill", 25)
	inFlight("grant", 0x40, TxAwaitAck)
	deliver(MsgAck, 0x40, L1ID(1))

	deliver(MsgGetS, 0x40, L1ID(2))
	inFlight("forward", 0x40, TxFwdGetS)
	deliver(MsgWBData, 0x40, L1ID(1))

	deliver(MsgGetS, 0x80, L1ID(2))
	advance("fill", 25)
	deliver(MsgGetX, 0xc0, L1ID(3)) // the set is full: 0x40 is recalled
	inFlight("eviction", 0x40, TxEvict)
	deliver(MsgInvAck, 0x40, L1ID(2))
	advance("retry", 1)
	inFlight("retried fetch", 0xc0, TxMemFetch)

	deliver(MsgGetX, 0xc0, L1ID(2)) // parks behind the fetch
	advance("fill", 25)
	inFlight("grant after the fill", 0xc0, TxAwaitAck)
	deliver(MsgAck, 0xc0, L1ID(3)) // retires the grant, drains the parked GetX
	inFlight("forward of the drained request", 0xc0, TxFwdGetX)
	deliver(MsgAck, 0xc0, L1ID(2))
	advance("idle", 10)

	if d.Txs.Waits.Value() != 1 || d.Txs.Retries.Value() == 0 || d.TxLive() != 0 || d.Busy() || net.pool.Live() != 0 {
		t.Fatalf("end: waits=%d retries=%d live=%d busy=%v messages=%d",
			d.Txs.Waits.Value(), d.Txs.Retries.Value(), d.TxLive(), d.Busy(), net.pool.Live())
	}
	if w := d.Cache.Peek(0xc0); w == nil || w.State != stExcl || w.Meta.owner != OwnerID(L1ID(2)) {
		t.Fatal("the drained GetX did not end owning 0xc0")
	}
}

// TestBasesSnoopAuthority: an L1 is authoritative only in its owned
// states; a tile is authoritative unless an L1 owns the line, in which
// case SnoopOwner names that L1.
func TestBasesSnoopAuthority(t *testing.T) {
	l, _, _ := newTestL1()
	w := l.Install(1, 0x40, block(3))
	for s, want := range map[uint8]bool{stShared: false, stOwned: true, stExcl: true} {
		l.Set(w, s)
		if blk, ok := l.SnoopBlock(0x48); ok != want || ok && blk[0] != 3 {
			t.Fatalf("L1 state %d: authoritative=%v, want %v", s, ok, want)
		}
	}
	if _, ok := l.SnoopBlock(0x80); ok {
		t.Fatal("L1 authoritative for an absent line")
	}

	d, _, _, _ := newTestDir()
	v := d.stage(0x40, stShared, 0)
	d.Cache.Block(v)[0] = 4
	if blk, ok := d.SnoopBlock(0x40); !ok || blk[0] != 4 {
		t.Fatal("tile not authoritative for an unowned line")
	}
	if _, ok := d.SnoopOwner(0x40); ok {
		t.Fatal("owner reported for an unowned line")
	}
	d.Set(v, stExcl)
	v.Meta.owner = OwnerID(L1ID(3))
	if _, ok := d.SnoopBlock(0x40); ok {
		t.Fatal("tile authoritative for an L1-owned line")
	}
	if o, ok := d.SnoopOwner(0x40); !ok || o != L1ID(3) {
		t.Fatalf("SnoopOwner = %d, %v", o, ok)
	}
	if _, ok := d.SnoopOwner(0x80); ok {
		t.Fatal("owner reported for an absent line")
	}
}

func TestDirBaseNamesAndCounters(t *testing.T) {
	d, net, _, _ := newTestDir()
	if d.TxKindName(TxAwaitAck) != "await-ack" || d.TxKindName(TxInvs) != "inv-test" ||
		d.TxKindName(0) != "kind-0" || d.TxKindName(9) != "kind-9" {
		t.Fatalf("kind names: %q %q %q %q", d.TxKindName(TxAwaitAck), d.TxKindName(TxInvs), d.TxKindName(0), d.TxKindName(9))
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
	d.txFor(3, net.msg(MsgInvAck, 0x40))
}

// TestBasesSteadyStateZeroAlloc: once the inbox, the pool and the timer
// heap have grown to their working size, the Deliver → Tick path of
// both bases allocates nothing: the owner's stamped reply to a forward,
// a write miss through its grant and stamped Ack, and a store hit
// included.
func TestBasesSteadyStateZeroAlloc(t *testing.T) {
	l, lnet, e := newTestL1()
	l.p.Handle = func(sim.Cycle, *Msg) {}
	l.p.Stamp = func(m *Msg, meta *testLine) { m.TS = uint32(meta.owner) }
	l.p.Wrote = func(_ sim.Cycle, w *memsys.Way[testLine], ack *Msg) {
		if ack != nil {
			ack.TS = uint32(w.Meta.owner)
		}
	}
	blk := block(1)
	now := sim.Cycle(10)
	storeCb := func() {}
	deliver := func(typ MsgType, addr uint64, data []byte) {
		m := lnet.msg(typ, addr)
		m.Requestor = L1ID(2)
		m.SetData(data)
		l.Deliver(now, m)
		l.Tick(now)
	}
	l1 := func() {
		now++
		l.Set(l.Install(now, 0x40, blk), stExcl)
		deliver(MsgFwdGetX, 0x40, nil)
		l.Store(now, 0xc8, 5, storeCb) // write miss
		deliver(MsgDataE, 0xc0, blk)
		now++
		l.Store(now, 0xc8, 6, storeCb) // store hit
		deliver(MsgFwdGetX, 0xc0, nil)
		e.RunWindow(now + 2)
		for _, m := range lnet.sent { // the mesh would deliver and recycle
			lnet.pool.Put(m)
		}
		lnet.drop()
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
