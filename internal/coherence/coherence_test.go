package coherence

import (
	"testing"

	"repro/internal/sim"
)

func TestNodeIDMapping(t *testing.T) {
	const n = 32
	for core := 0; core < n; core++ {
		l1 := L1ID(core)
		l2 := L2ID(core, n)
		if !IsL1(l1, n) || IsL1(l2, n) {
			t.Fatalf("IsL1 wrong for core %d", core)
		}
		if Router(l1, n) != core || Router(l2, n) != core {
			t.Fatalf("router mismatch for core %d", core)
		}
	}
}

func TestMsgFlits(t *testing.T) {
	if BlockFlits != 5 {
		t.Fatalf("BlockFlits = %d, want 5 (1 head + 64B/16B)", BlockFlits)
	}
	dataTypes := []MsgType{MsgDataE, MsgDataS, MsgDataSRO, MsgDataOwner, MsgWBData, MsgPutM}
	for _, mt := range dataTypes {
		if !mt.CarriesData() || mt.Flits() != BlockFlits {
			t.Fatalf("%v should be a %d-flit data message", mt, BlockFlits)
		}
	}
	ctrlTypes := []MsgType{MsgGetS, MsgGetX, MsgPutE, MsgPutS, MsgPutAck, MsgFwdGetS,
		MsgFwdGetX, MsgInv, MsgAck, MsgInvAck, MsgTSResetL1, MsgTSResetL2, MsgUpgAck}
	for _, mt := range ctrlTypes {
		if mt.CarriesData() || mt.Flits() != ControlFlits {
			t.Fatalf("%v should be a control message", mt)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := MsgType(0); mt < numMsgTypes; mt++ {
		if s := mt.String(); s == "" || s[0] == 'M' && len(s) > 20 {
			t.Fatalf("missing name for message type %d", mt)
		}
	}
}

func TestTimersFireInOrder(t *testing.T) {
	var tm Timers
	var fired []uint64
	record := func(_ sim.Cycle, m *Msg) { fired = append(fired, m.Addr) }
	tm.AtMsg(5, record, &Msg{Addr: 1})
	tm.AtMsg(3, record, &Msg{Addr: 0})
	tm.AtMsg(5, record, &Msg{Addr: 2})
	if tm.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", tm.Pending())
	}
	for c := sim.Cycle(0); c <= 6; c++ {
		tm.Tick(c)
	}
	if len(fired) != 3 || fired[0] != 0 || fired[1] != 1 || fired[2] != 2 {
		t.Fatalf("fired order %v", fired)
	}
	if tm.Pending() != 0 {
		t.Fatal("timers not drained")
	}
}

func TestTimersSameCycleScheduling(t *testing.T) {
	var tm Timers
	var ran *Msg
	m := &Msg{Addr: 0x40}
	tm.AtMsg(2, func(now sim.Cycle, m *Msg) {
		tm.AtMsg(now+1, func(_ sim.Cycle, m *Msg) { ran = m }, m)
	}, m)
	tm.Tick(2)
	tm.Tick(3)
	if ran != m {
		t.Fatal("timer scheduled from a timer did not run on its message")
	}
}

func TestSelfInvCauseStrings(t *testing.T) {
	for c := SelfInvCause(0); c < NumSelfInvCauses; c++ {
		if c.String() == "" {
			t.Fatalf("cause %d has no name", c)
		}
	}
}

func TestL1StatsAggregates(t *testing.T) {
	var s L1Stats
	s.ReadHitPrivate.Add(10)
	s.ReadHitShared.Add(5)
	s.ReadHitSRO.Add(3)
	s.ReadMissInvalid.Add(2)
	s.ReadMissShared.Add(1)
	s.WriteHitPrivate.Add(7)
	s.WriteMissInvalid.Add(4)
	s.WriteMissShared.Add(2)
	s.WriteMissSRO.Add(1)
	if s.Reads() != 21 {
		t.Fatalf("reads = %d, want 21", s.Reads())
	}
	if s.Writes() != 14 {
		t.Fatalf("writes = %d, want 14", s.Writes())
	}
	if s.Accesses() != 35 {
		t.Fatalf("accesses = %d, want 35", s.Accesses())
	}
	if s.Misses() != 10 {
		t.Fatalf("misses = %d, want 10", s.Misses())
	}
}

func TestL1StatsMerge(t *testing.T) {
	var a, b L1Stats
	a.ReadHitPrivate.Add(1)
	a.SelfInvEvents[CauseFence].Add(2)
	a.RMWLat.Observe(100)
	b.ReadHitPrivate.Add(2)
	b.SelfInvEvents[CauseFence].Add(3)
	b.RMWLat.Observe(200)
	b.RMWLat.Observe(300)

	var total L1Stats
	total.Merge(&a)
	total.Merge(&b)
	if total.ReadHitPrivate.Value() != 3 {
		t.Fatalf("merged hits = %d", total.ReadHitPrivate.Value())
	}
	if total.SelfInvEvents[CauseFence].Value() != 5 {
		t.Fatalf("merged fence self-invs = %d", total.SelfInvEvents[CauseFence].Value())
	}
	if got := total.MeanRMWLatency(); got != 200 {
		t.Fatalf("merged mean RMW latency = %v, want 200", got)
	}
	if total.SelfInvTotal() != 5 {
		t.Fatalf("self-inv total = %d", total.SelfInvTotal())
	}
}

func TestMsgString(t *testing.T) {
	m := &Msg{Type: MsgGetS, Src: 1, Dst: 34, Addr: 0x1000}
	if s := m.String(); s == "" {
		t.Fatal("empty string rendering")
	}
}
