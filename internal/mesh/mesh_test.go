package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/sim"
)

type sink struct {
	got []arrival
}

type arrival struct {
	at  sim.Cycle
	msg *coherence.Msg
}

func (s *sink) Deliver(now sim.Cycle, m *coherence.Msg) {
	s.got = append(s.got, arrival{at: now, msg: m})
}

// build attaches one sink per router and registers the network on a
// wake-set engine, which binds the waker its deliveries are filed
// through.
func build(routers int) (*Network, []*sink, *sim.Engine) {
	n := New(Config{Routers: routers})
	sinks := make([]*sink, routers)
	for i := 0; i < routers; i++ {
		sinks[i] = &sink{}
		n.Attach(coherence.NodeID(i), i, sinks[i])
	}
	return n, sinks, onEngine(n)
}

func onEngine(n *Network) *sim.Engine {
	e := sim.NewEngine(0)
	e.Register(n)
	return e
}

// run advances e through cycle until: every cycle in per-cycle mode,
// only the due ones otherwise.
func run(e *sim.Engine, until sim.Cycle) {
	if !e.EventDriven() {
		for e.Now() < until {
			e.Step()
		}
		return
	}
	e.RunWindow(until + 1)
}

func TestLocalDelivery(t *testing.T) {
	n := New(Config{Routers: 2})
	e := onEngine(n)
	a, b := &sink{}, &sink{}
	n.Attach(0, 0, a)
	n.Attach(100, 0, b) // co-located with router 0
	n.Send(0, &coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 100})
	run(e, 5)
	if len(b.got) != 1 || b.got[0].at != 1 {
		t.Fatalf("co-located delivery: %+v", b.got)
	}
	if n.FlitHops.Value() != 0 {
		t.Fatal("co-located message should not consume link bandwidth")
	}
}

func TestRemoteDeliveryLatencyAndFlits(t *testing.T) {
	n, sinks, e := build(16) // 4x4
	// Router 0 -> router 3: 3 hops east.
	n.Send(0, &coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 3})
	run(e, 20)
	if len(sinks[3].got) != 1 {
		t.Fatal("message not delivered")
	}
	// 3 hops, 1 cycle/hop + 1 delivery = small constant; control = 1 flit.
	if at := sinks[3].got[0].at; at < 3 || at > 6 {
		t.Fatalf("3-hop control message arrived at %d", at)
	}
	if n.FlitsSent.Value() != 1 || n.FlitHops.Value() != 3 {
		t.Fatalf("flits=%d hops=%d, want 1/3", n.FlitsSent.Value(), n.FlitHops.Value())
	}
}

func TestDataMessageFlitAccounting(t *testing.T) {
	n, _, e := build(4)
	n.Send(0, &coherence.Msg{Type: coherence.MsgDataS, Src: 0, Dst: 3,
		Data: make([]byte, config.BlockSize)})
	run(e, 30)
	wantFlits := int64(coherence.BlockFlits)
	if n.FlitsSent.Value() != wantFlits {
		t.Fatalf("flits = %d, want %d", n.FlitsSent.Value(), wantFlits)
	}
	if n.FlitsByClass[1].Value() != wantFlits || n.FlitsByClass[0].Value() != 0 {
		t.Fatal("data/control class accounting wrong")
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	n, sinks, e := build(4) // 2x2
	// Two 5-flit data messages over the same link, same cycle: the
	// second must arrive later than the first.
	for i := 0; i < 2; i++ {
		n.Send(0, &coherence.Msg{Type: coherence.MsgDataS, Src: 0, Dst: 1,
			Data: make([]byte, config.BlockSize)})
	}
	run(e, 40)
	if len(sinks[1].got) != 2 {
		t.Fatalf("deliveries = %d", len(sinks[1].got))
	}
	d := sinks[1].got[1].at - sinks[1].got[0].at
	if d < sim.Cycle(coherence.BlockFlits) {
		t.Fatalf("second message arrived %d cycles after first, want >= %d (serialization)",
			d, coherence.BlockFlits)
	}
}

func TestPerPairFIFO(t *testing.T) {
	// Messages between one src-dst pair must never reorder, regardless
	// of size mix — the protocols rely on this.
	n, sinks, e := build(16)
	seq := 0
	for i := 0; i < 20; i++ {
		m := &coherence.Msg{Src: 0, Dst: 15, Addr: uint64(seq)}
		if i%3 == 0 {
			m.Type = coherence.MsgDataS
			m.Data = make([]byte, config.BlockSize)
		} else {
			m.Type = coherence.MsgInv
		}
		seq++
		n.Send(sim.Cycle(i), m)
	}
	run(e, 500)
	if len(sinks[15].got) != 20 {
		t.Fatalf("deliveries = %d, want 20", len(sinks[15].got))
	}
	for i, a := range sinks[15].got {
		if a.msg.Addr != uint64(i) {
			t.Fatalf("reordered: position %d has seq %d", i, a.msg.Addr)
		}
	}
}

func TestBroadcastFanOut(t *testing.T) {
	// Protocol broadcasts (TS resets, SRO invalidations) are per-copy
	// sends; fan-out from one source must reach every destination.
	n, sinks, e := build(8)
	dsts := []coherence.NodeID{1, 2, 3, 4, 5, 6, 7}
	for _, d := range dsts {
		n.Send(0, &coherence.Msg{Type: coherence.MsgTSResetL1, Src: 0, Dst: d})
	}
	run(e, 50)
	for _, d := range dsts {
		if len(sinks[d].got) != 1 {
			t.Fatalf("router %d missed broadcast", d)
		}
	}
	if n.MsgsSent.Value() != int64(len(dsts)) {
		t.Fatalf("msgs = %d", n.MsgsSent.Value())
	}
}

func TestHopDistance(t *testing.T) {
	n, _, _ := build(16) // 4x4
	cases := []struct {
		a, b coherence.NodeID
		want int
	}{
		{0, 0, 0}, {0, 3, 3}, {0, 12, 3}, {0, 15, 6}, {5, 10, 2},
	}
	for _, c := range cases {
		if got := n.HopDistance(c.a, c.b); got != c.want {
			t.Fatalf("HopDistance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	n, _, _ := build(32)
	check := func(a, b uint8) bool {
		x := coherence.NodeID(int(a) % 32)
		y := coherence.NodeID(int(b) % 32)
		return n.HopDistance(x, y) == n.HopDistance(y, x)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEveryPairDeliverable(t *testing.T) {
	n, sinks, e := build(12) // 3x4 or similar
	count := 0
	for s := 0; s < 12; s++ {
		for d := 0; d < 12; d++ {
			if s == d {
				continue
			}
			n.Send(0, &coherence.Msg{Type: coherence.MsgAck,
				Src: coherence.NodeID(s), Dst: coherence.NodeID(d)})
			count++
		}
	}
	run(e, 2000)
	got := 0
	for _, s := range sinks {
		got += len(s.got)
	}
	if got != count {
		t.Fatalf("delivered %d of %d", got, count)
	}
	if n.Pending() != 0 {
		t.Fatal("messages still pending")
	}
}

func TestNearSquareRows(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 16: 4, 32: 4, 8: 2, 64: 8, 7: 2, 12: 3}
	for n, want := range cases {
		if got := nearSquareRows(n); got != want {
			t.Fatalf("nearSquareRows(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestExplicitRows(t *testing.T) {
	n := New(Config{Routers: 32, Rows: 4})
	if n.Rows() != 4 || n.Cols() != 8 {
		t.Fatalf("rows=%d cols=%d, want 4x8 (Table 2)", n.Rows(), n.Cols())
	}
}

func TestUnknownEndpointPanics(t *testing.T) {
	n, _, _ := build(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown destination")
		}
	}()
	n.Send(0, &coherence.Msg{Type: coherence.MsgAck, Src: 0, Dst: 99})
}

// sendData injects a 5-flit data message 0 -> 1 at cycle now and returns
// nothing; deliveries are drained by the caller via wake hints.
func sendData(n *Network, now sim.Cycle) {
	n.Send(now, &coherence.Msg{Type: coherence.MsgDataS, Src: 0, Dst: 1,
		Data: make([]byte, config.BlockSize)})
}

// drainByWake runs the engine from one due cycle to the next until
// every message sent on n is delivered.
func drainByWake(t *testing.T, e *sim.Engine, n *Network) {
	t.Helper()
	for n.Pending() > 0 {
		at := e.NextDue()
		if at == sim.WakeNever {
			t.Fatal("pending deliveries but nothing due")
		}
		e.RunWindow(at + 1)
	}
}

// TestLinkTimingIndependentOfCycle: link reservations are stored as
// absolute cycles, so a contended pair of sends must see the same
// uncontended and contended latencies early in a run, far into it and
// near the largest cycle a trace header may carry (2^62).
func TestLinkTimingIndependentOfCycle(t *testing.T) {
	n, sinks, e := build(2) // 1x2 mesh: one east link 0 -> 1
	var uncontended, contended sim.Cycle
	for i, now := range []sim.Cycle{10, 1 << 40, 1<<62 - 1<<20} {
		sendData(n, now)
		sendData(n, now)
		drainByWake(t, e, n)
		u, c := sinks[1].got[2*i].at-now, sinks[1].got[2*i+1].at-now
		if i == 0 {
			if c <= u {
				t.Fatalf("no serialization at cycle %d: %d vs %d", now, c, u)
			}
			uncontended, contended = u, c
			continue
		}
		if u != uncontended || c != contended {
			t.Fatalf("at cycle %d: latencies %d / %d, want %d / %d", now, u, c, uncontended, contended)
		}
	}
}

// sendAt is a component that sends one message at a fixed cycle from
// its own tick, when the engine's clock stands at that cycle.
type sendAt struct {
	n  *Network
	at sim.Cycle
	m  *coherence.Msg
}

func (s *sendAt) Tick(now sim.Cycle) {
	if now == s.at {
		s.n.Send(now, s.m)
	}
}

func (s *sendAt) NextWake(now sim.Cycle) sim.Cycle {
	if now < s.at {
		return s.at
	}
	return sim.WakeNever
}

// TestDeliveriesKeepSendOrder: messages due in the same cycle reach
// their endpoint in send order, in both engine modes — from several
// sources over different routes and send cycles, and for a delivery a
// delay hook moved past the engine's completion ring, which must still
// arrive on its exact cycle and ahead of a later direct send that lands
// on the same cycle.
func TestDeliveriesKeepSendOrder(t *testing.T) {
	for _, perCycle := range []bool{true, false} {
		name := "event"
		if perCycle {
			name = "per-cycle"
		}
		t.Run(name, func(t *testing.T) {
			// 4x4 mesh; every message goes to router 5 at (1,1). Node 20
			// shares router 5 and has its deliveries delayed 100 cycles;
			// node 21 shares it undelayed.
			n := New(Config{Routers: 16})
			sinks := make([]*sink, 16)
			for i := range sinks {
				sinks[i] = &sink{}
				n.Attach(coherence.NodeID(i), i, sinks[i])
			}
			n.Attach(20, 5, &sink{})
			n.Attach(21, 5, &sink{})
			var farAt sim.Cycle
			n.SetDelayHook(func(now, at sim.Cycle, src, dst coherence.NodeID) sim.Cycle {
				if src == 20 {
					farAt = at + 100
					return farAt
				}
				return at
			})
			e := sim.NewEngine(0)
			e.SetPerCycle(perCycle)
			e.Register(n)
			send := func(now sim.Cycle, src coherence.NodeID) {
				n.Send(now, &coherence.Msg{Type: coherence.MsgInv, Src: src, Dst: 5})
			}
			// Five sources, three send cycles, one arrival cycle (3): two
			// hops west from 7, one hop each from 9, 4 and 1, and the
			// crossbar from 21.
			send(0, 20)
			send(0, 7)
			send(1, 9)
			send(1, 4)
			send(1, 1)
			send(2, 21)
			if farAt-e.Now() < 64 {
				t.Fatalf("delayed delivery at %d lies inside the engine ring", farAt)
			}
			// Router 6 is one hop from 5: its send two cycles before the
			// delayed delivery lands with it, filed straight into the ring.
			e.Register(&sendAt{n: n, at: farAt - 2,
				m: &coherence.Msg{Type: coherence.MsgInv, Src: 6, Dst: 5}})
			run(e, farAt+1)

			type want struct {
				src coherence.NodeID
				at  sim.Cycle
			}
			wants := []want{{7, 3}, {9, 3}, {4, 3}, {1, 3}, {21, 3}, {20, farAt}, {6, farAt}}
			got := sinks[5].got
			if len(got) != len(wants) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(wants))
			}
			for i, w := range wants {
				if got[i].msg.Src != w.src || got[i].at != w.at {
					t.Fatalf("delivery %d: from %d at %d, want from %d at %d",
						i, got[i].msg.Src, got[i].at, w.src, w.at)
				}
			}
			if n.Pending() != 0 {
				t.Fatalf("%d messages still pending", n.Pending())
			}
		})
	}
}

// Cols reports the mesh column count.
func (n *Network) Cols() int { return n.cols }

// HopDistance reports the XY hop count between two node IDs.
func (n *Network) HopDistance(a, b coherence.NodeID) int {
	sa := n.node(a)
	sb := n.node(b)
	if sa.ep == nil || sb.ep == nil {
		return 0
	}
	ax, ay := n.coords(sa.router)
	bx, by := n.coords(sb.router)
	return abs(ax-bx) + abs(ay-by)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
