package tsocc

import (
	"bytes"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
)

// The requester's side of the protocol, pinned message by message: how
// an L1 completes a read or write miss from each response it can get —
// the state the line lands in, its data and metadata, what goes back on
// the wire and in which order (a write's Ack carrying its timestamp,
// §3.2), and what the core's callback is handed — and how store and
// RMW hits on an owned line complete without a message, stamping the
// line with the write's timestamp. The rig is the owner tests' one-line
// L1 (owner_test.go).

// wire is the part of a sent message the requester side is pinned on:
// an Ack's timestamp fields count only when it says they are valid.
type wire struct {
	typ     coherence.MsgType
	dst     coherence.NodeID
	addr    uint64
	ts      uint32
	tsValid bool
	epoch   uint8
}

// expectWire checks the messages sent since the last reset, in order:
// every one leaves this L1, requests name it as requester, and none of
// them carries data.
func (r *ownerRig) expectWire(want ...wire) {
	r.t.Helper()
	if len(r.net.sent) != len(want) {
		r.t.Fatalf("sent %d messages %v, want %+v", len(r.net.sent), r.net.sent, want)
	}
	for i, w := range want {
		m := r.net.sent[i]
		req := m.Type != coherence.MsgGetS && m.Type != coherence.MsgGetX || m.Requestor == coherence.L1ID(owner)
		ts := m.TSValid == w.tsValid && (!w.tsValid || m.TS == w.ts && m.Epoch == w.epoch)
		if m.Type == coherence.MsgTSResetL1 {
			ts = m.Epoch == w.epoch
		}
		if m.Type != w.typ || m.Dst != w.dst || m.Addr != w.addr || m.Src != coherence.L1ID(owner) ||
			!req || !ts || len(m.Data) != 0 {
			r.t.Fatalf("message %d: %s ts=%d valid=%v epoch=%d, want %+v", i, &m, m.TS, m.TSValid, m.Epoch, w)
		}
	}
}

// respond hands the L1 a data response carrying timestamp ts from a
// writer this L1 has never heard of (so it self-invalidates).
func (r *ownerRig) respond(typ coherence.MsgType, src coherence.NodeID, data []byte, ts uint32) {
	m := r.net.pool.Get()
	m.Type, m.Addr, m.Src, m.Dst, m.Owner = typ, ownA, src, coherence.L1ID(owner), -1
	m.TS, m.TSValid = ts, ts != tsInvalid
	m.SetData(data)
	r.now++
	r.l.Deliver(r.now, m)
	r.l.Tick(r.now)
}

// settle runs the engine past every hit completion filed so far.
func (r *ownerRig) settle() { r.e.RunWindow(r.now + 10) }

// expectLine checks addr's state and, for a cached line, its data and
// metadata.
func (r *ownerRig) expectLine(addr uint64, state uint8, data []byte, meta l1Line) {
	r.t.Helper()
	w := r.l.Cache.Peek(addr)
	switch {
	case state == 0 && w != nil:
		r.t.Fatalf("%#x cached in state %d, want absent", addr, w.State)
	case state == 0:
	case w == nil || w.State != state:
		r.t.Fatalf("%#x: way %v, want state %d", addr, w, state)
	case !bytes.Equal(r.l.Cache.Block(w), data):
		r.t.Fatalf("%#x holds %x, want %x", addr, r.l.Cache.Block(w), data)
	case w.Meta != meta:
		r.t.Fatalf("%#x metadata %+v, want %+v", addr, w.Meta, meta)
	}
}

// fill is the block every response in these tests carries.
func fill() []byte {
	b := make([]byte, config.BlockSize)
	for i := range b {
		b[i] = byte(i + 1)
	}
	return b
}

// with returns a copy of b whose word at addr holds v.
func with(b []byte, addr, v uint64) []byte {
	c := append([]byte(nil), b...)
	memsys.PutWord(c, addr, v)
	return c
}

// TestRequesterReadFills: a read miss sends a GetS to the home tile. An
// exclusive grant installs the line E and is acknowledged (the Ack of a
// read carries no timestamp); Shared data from the tile or from an
// owner installs it S, in the sweep index, and SharedRO data installs it
// R, without an Ack; each fill takes the response's timestamp as the
// line's, not its own, with a fresh access budget. Owner data that an
// Inv overtook is not installed. Every response is counted and treated
// as a potential acquire; every fill completes the load.
func TestRequesterReadFills(t *testing.T) {
	home, peer := coherence.L2ID(0, 4), coherence.L1ID(other)
	word := memsys.GetWord(fill(), ownA+8)
	for _, c := range []struct {
		typ    coherence.MsgType
		src    coherence.NodeID
		squash bool
		state  uint8
		ack    bool
	}{
		{coherence.MsgDataE, home, false, stateE, true},
		{coherence.MsgDataS, home, false, stateS, false},
		{coherence.MsgDataOwner, peer, false, stateS, false},
		{coherence.MsgDataOwner, peer, true, 0, false},
		{coherence.MsgDataSRO, home, false, stateR, false},
	} {
		r := newOwnerRig(t, config.C12x3())
		var got uint64
		done := false
		r.now++
		r.l.Load(r.now, ownA+8, func(v uint64) { got, done = v, true })
		r.expectWire(wire{typ: coherence.MsgGetS, dst: home, addr: ownA})
		if c.squash {
			r.deliver(coherence.MsgInv, ownA, home, 0, nil)
		}
		r.reset()
		r.respond(c.typ, c.src, fill(), 9)
		if c.ack {
			r.expectWire(wire{typ: coherence.MsgAck, dst: home, addr: ownA})
		} else {
			r.expectWire()
		}
		if c.state == 0 {
			r.expectHops()
		} else {
			r.expectHops([3]int{ownA, 0, int(c.state)})
		}
		r.expectLine(ownA, c.state, fill(), l1Line{ts: 9, listed: c.state == stateS})
		if !done || got != word || r.l.Busy() || r.l.Stats.DataResponses.Value() != 1 ||
			r.l.Stats.SelfInvEvents[coherence.CauseInvalidTS].Value() != 1 {
			t.Fatalf("%s squash=%v: load done=%v got %#x (want %#x) busy=%v responses=%d",
				c.typ, c.squash, done, got, word, r.l.Busy(), r.l.Stats.DataResponses.Value())
		}
	}
}

// TestRequesterCCSharedToL2: with no Shared caching, Shared data
// completes the load without being installed, so a fill into a full set
// evicts nothing; the line already there stays as it was.
func TestRequesterCCSharedToL2(t *testing.T) {
	home := coherence.L2ID(0, 4)
	for _, typ := range []coherence.MsgType{coherence.MsgDataS, coherence.MsgDataOwner} {
		r := newOwnerRig(t, config.CCSharedToL2())
		r.own(stateE)
		var got uint64
		done := false
		r.now++
		r.l.Load(r.now, ownB+8, func(v uint64) { got, done = v, true })
		r.expectWire(wire{typ: coherence.MsgGetS, dst: r.l.Home(ownB), addr: ownB})
		r.reset()
		m := r.net.pool.Get()
		m.Type, m.Addr, m.Src, m.Dst, m.Owner = typ, ownB, home, coherence.L1ID(owner), -1
		m.SetData(fill())
		r.now++
		r.l.Deliver(r.now, m)
		r.l.Tick(r.now)
		r.expectWire()
		r.expectHops()
		r.expectLine(ownB, 0, nil, l1Line{})
		r.expectLine(ownA, stateE, r.line, l1Line{})
		if !done || got != memsys.GetWord(fill(), ownB+8) || r.l.Busy() {
			t.Fatalf("%s: load done=%v got %#x busy=%v", typ, done, got, r.l.Busy())
		}
	}
}

// TestRequesterWriteMisses: a write miss sends a GetX to the home tile;
// data from the tile or from the previous owner installs the line M with
// the write applied and the write's timestamp as the line's own. The
// Ack that follows carries that timestamp and the current epoch, then
// the core's store or RMW completes; an RMW is handed the word's old
// value. A CAS that fails takes the line M, unchanged and unstamped,
// and its Ack carries no timestamp; without timestamps no Ack does.
func TestRequesterWriteMisses(t *testing.T) {
	home, peer := coherence.L2ID(0, 4), coherence.L1ID(other)
	old := memsys.GetWord(fill(), ownA+8)
	add := func(v uint64) (uint64, bool) { return v + 5, true }
	cas := func(uint64) (uint64, bool) { return 0, false }
	stamped := l1Line{ts: tsFirst, tsOwn: true}
	for _, c := range []struct {
		name string
		cfg  config.TSOCC
		typ  coherence.MsgType
		src  coherence.NodeID
		f    func(uint64) (uint64, bool) // nil: a store of 0xbeef
		data []byte
		meta l1Line
	}{
		{"store/DataE", config.C12x3(), coherence.MsgDataE, home, nil, with(fill(), ownA+8, 0xbeef), stamped},
		{"rmw/DataOwner", config.C12x3(), coherence.MsgDataOwner, peer, add, with(fill(), ownA+8, old+5), stamped},
		{"failed-cas/DataE", config.C12x3(), coherence.MsgDataE, home, cas, fill(), l1Line{}},
		{"basic/store", config.Basic(), coherence.MsgDataE, home, nil, with(fill(), ownA+8, 0xbeef), l1Line{tsOwn: true}},
	} {
		r := newOwnerRig(t, c.cfg)
		var got uint64
		done := false
		r.now++
		if c.f == nil {
			r.l.Store(r.now, ownA+8, 0xbeef, func() { done = true })
		} else {
			r.l.RMW(r.now, ownA+8, c.f, func(v uint64) { got, done = v, true })
		}
		r.expectWire(wire{typ: coherence.MsgGetX, dst: home, addr: ownA})
		if r.l.Stats.WriteMissInvalid.Value() != 1 {
			t.Fatalf("%s: write miss not counted", c.name)
		}
		r.reset()
		r.respond(c.typ, c.src, fill(), 9)
		r.expectWire(wire{typ: coherence.MsgAck, dst: home, addr: ownA, ts: c.meta.ts, tsValid: c.meta.ts != tsInvalid})
		r.expectHops([3]int{ownA, 0, stateM})
		r.expectLine(ownA, stateM, c.data, c.meta)
		if !done || c.f != nil && got != old || r.l.Busy() {
			t.Fatalf("%s: write done=%v old %#x (want %#x) busy=%v", c.name, done, got, old, r.l.Busy())
		}
	}
}

// TestRequesterWriteMissCounts: a write miss is counted by what the L1
// held: nothing, a Shared copy, or a SharedRO copy.
func TestRequesterWriteMissCounts(t *testing.T) {
	home := coherence.L2ID(0, 4)
	for _, c := range []struct {
		typ  coherence.MsgType // the fill before the write; 0: none
		stat func(*coherence.L1Stats) int64
	}{
		{0, func(s *coherence.L1Stats) int64 { return s.WriteMissInvalid.Value() }},
		{coherence.MsgDataS, func(s *coherence.L1Stats) int64 { return s.WriteMissShared.Value() }},
		{coherence.MsgDataSRO, func(s *coherence.L1Stats) int64 { return s.WriteMissSRO.Value() }},
	} {
		r := newOwnerRig(t, config.C12x3())
		if c.typ != 0 {
			r.l.Load(r.now, ownA, func(uint64) {})
			r.respond(c.typ, home, fill(), 9)
		}
		r.reset()
		r.now++
		r.l.Store(r.now, ownA, 1, func() {})
		r.expectWire(wire{typ: coherence.MsgGetX, dst: home, addr: ownA})
		if c.stat(&r.l.Stats) != 1 {
			t.Fatalf("after %s: write miss not counted as such", c.typ)
		}
		if w := r.l.Cache.Peek(ownA); w != nil && w.Busy {
			t.Fatalf("after %s: copy pinned", c.typ)
		}
	}
}

// TestRequesterWriteWrapsTimestamps: a write that takes the last
// timestamp of the epoch resets the source: the TSResetL1 broadcast to
// every other L1 and every tile leaves before the write's Ack, which
// carries the timestamp the write took, under the new epoch.
func TestRequesterWriteWrapsTimestamps(t *testing.T) {
	r := newOwnerRig(t, config.C12x0())
	last := r.l.cfg.TSMax()
	r.l.tsSrc = last
	r.now++
	r.l.Store(r.now, ownA+8, 0xbeef, func() {})
	r.reset()
	r.respond(coherence.MsgDataE, coherence.L2ID(0, 4), fill(), tsInvalid)
	var want []wire
	for c := 0; c < 4; c++ {
		if c != owner {
			want = append(want, wire{typ: coherence.MsgTSResetL1, dst: coherence.L1ID(c), epoch: 1})
		}
		want = append(want, wire{typ: coherence.MsgTSResetL1, dst: coherence.L2ID(c, 4), epoch: 1})
	}
	want = append(want, wire{typ: coherence.MsgAck, dst: coherence.L2ID(0, 4), addr: ownA, ts: last, tsValid: true, epoch: 1})
	r.expectWire(want...)
	r.expectLine(ownA, stateM, with(fill(), ownA+8, 0xbeef), l1Line{ts: last, tsOwn: true})
	if r.l.tsSrc != tsFirst || r.l.epoch != 1 || r.l.Stats.TimestampResets.Value() != 1 {
		t.Fatalf("source after the wrap: ts %d epoch %d resets %d", r.l.tsSrc, r.l.epoch, r.l.Stats.TimestampResets.Value())
	}
}

// TestRequesterHits: a store or RMW that hits an owned line completes
// without a message and leaves it M with the write applied and stamped
// with the next timestamp; the store's callback fires on the next
// cycle, the RMW's with the old value after the hit latency. A CAS
// that fails leaves the line, and its timestamp, as they were.
func TestRequesterHits(t *testing.T) {
	old := uint64(0x1111111111111111) // own's fill
	for _, state := range []uint8{stateE, stateM} {
		// own(stateM) took timestamp 2 for its write; the hit takes the next.
		before, next := l1Line{}, l1Line{ts: tsFirst, tsOwn: true}
		if state == stateM {
			before, next = next, l1Line{ts: tsFirst + 1, tsOwn: true}
		}
		for _, op := range []string{"store", "rmw", "failed-cas"} {
			r := newOwnerRig(t, config.C12x0())
			r.own(state)
			var got uint64
			done := false
			r.now++
			var ok bool
			want, to, meta := r.line, uint8(stateM), next
			switch op {
			case "store":
				ok = r.l.Store(r.now, ownA+16, 7, func() { done = true })
				want = with(r.line, ownA+16, 7)
			case "rmw":
				ok = r.l.RMW(r.now, ownA+16, func(v uint64) (uint64, bool) { return v + 1, true },
					func(v uint64) { got, done = v, true })
				want = with(r.line, ownA+16, old+1)
			default:
				ok = r.l.RMW(r.now, ownA+16, func(uint64) (uint64, bool) { return 0, false },
					func(v uint64) { got, done = v, true })
				to, meta = state, before
			}
			if !ok || done {
				t.Fatalf("%s on %d: accepted=%v, completed before the hit latency=%v", op, state, ok, done)
			}
			r.settle()
			r.expectWire()
			if to == state {
				r.expectHops()
			} else {
				r.expectHops([3]int{ownA, int(state), stateM})
			}
			r.expectLine(ownA, to, want, meta)
			if !done || op != "store" && got != old || r.l.Stats.WriteHitPrivate.Value() != 1 {
				t.Fatalf("%s on %d: done=%v old %#x hits=%d", op, state, done, got, r.l.Stats.WriteHitPrivate.Value())
			}
			if n := r.l.Stats.RMWLat.Count(); op == "store" && n != 0 ||
				op != "store" && (n != 1 || r.l.Stats.RMWLat.Sum() != int64(r.l.HitLat)) {
				t.Fatalf("%s on %d: RMW latency count %d sum %d", op, state, n, r.l.Stats.RMWLat.Sum())
			}
		}
	}
}
