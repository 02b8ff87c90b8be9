package mesi

import (
	"bytes"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
)

// The requester's side of the protocol, pinned message by message: how
// an L1 completes a read or write miss from each response it can get —
// the state the line lands in, the data it holds, what goes back on the
// wire and in which order, and what the core's callback is handed —
// and how store and RMW hits on an owned line complete without a
// message. The rig is the owner tests' one-line L1 (owner_test.go).

// wire is the part of a sent message the requester side is pinned on.
type wire struct {
	typ  coherence.MsgType
	dst  coherence.NodeID
	addr uint64
}

// expectWire checks the messages sent since the last reset, in order:
// every one leaves this L1, requests name it as requester, and none of
// them carries data.
func (r *ownerRig) expectWire(want ...wire) {
	r.t.Helper()
	if len(r.net.sent) != len(want) {
		r.t.Fatalf("sent %d messages %v, want %v", len(r.net.sent), r.net.sent, want)
	}
	for i, w := range want {
		m := r.net.sent[i]
		req := m.Type != coherence.MsgGetS && m.Type != coherence.MsgGetX || m.Requestor == coherence.L1ID(owner)
		if m.Type != w.typ || m.Dst != w.dst || m.Addr != w.addr || m.Src != coherence.L1ID(owner) || !req || len(m.Data) != 0 {
			r.t.Fatalf("message %d: %s, want %s to %d for %#x", i, &m, w.typ, w.dst, w.addr)
		}
	}
}

// settle runs the engine past every hit completion filed so far.
func (r *ownerRig) settle() { r.e.RunWindow(r.now + 10) }

// expectLine checks addr's state and, for a cached line, its data.
func (r *ownerRig) expectLine(addr uint64, state uint8, data []byte) {
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
// exclusive grant installs the line E and is acknowledged; Shared data
// from the tile or from an owner installs it S without an Ack; owner
// data that an Inv overtook is not installed. Every fill completes the
// load with the word it asked for.
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
	} {
		r := newOwnerRig(t)
		var got uint64
		done := false
		r.now++
		r.l.Load(r.now, ownA+8, func(v uint64) { got, done = v, true })
		r.expectWire(wire{coherence.MsgGetS, home, ownA})
		if c.squash {
			r.deliver(coherence.MsgInv, ownA, home, 0, nil)
		}
		r.reset()
		r.deliver(c.typ, ownA, c.src, 0, fill())
		if c.ack {
			r.expectWire(wire{coherence.MsgAck, home, ownA})
		} else {
			r.expectWire()
		}
		if c.state == 0 {
			r.expectHops()
		} else {
			r.expectHops([3]int{ownA, 0, int(c.state)})
		}
		r.expectLine(ownA, c.state, fill())
		if !done || got != word || r.l.Busy() || r.l.Stats.DataResponses.Value() != 1 {
			t.Fatalf("%s squash=%v: load done=%v got %#x (want %#x) busy=%v responses=%d",
				c.typ, c.squash, done, got, word, r.l.Busy(), r.l.Stats.DataResponses.Value())
		}
	}
}

// TestRequesterWriteMisses: a write miss sends a GetX to the home tile.
// Data from the tile or from the previous owner installs the line M with
// the write applied; an upgrade grant applies it to the Shared copy the
// miss pinned, releasing the pin. Each is acknowledged, then the core's
// store or RMW completes; an RMW is handed the word's old value. A CAS
// that fails still takes the line M, unchanged.
func TestRequesterWriteMisses(t *testing.T) {
	home, peer := coherence.L2ID(0, 4), coherence.L1ID(other)
	old := memsys.GetWord(fill(), ownA+8)
	add := func(v uint64) (uint64, bool) { return v + 5, true }
	cas := func(uint64) (uint64, bool) { return 0, false }
	for _, c := range []struct {
		name   string
		typ    coherence.MsgType
		src    coherence.NodeID
		f      func(uint64) (uint64, bool) // nil: a store of 0xbeef
		shared bool                        // the miss upgrades a Shared copy
		data   []byte
	}{
		{"store/DataE", coherence.MsgDataE, home, nil, false, with(fill(), ownA+8, 0xbeef)},
		{"rmw/DataOwner", coherence.MsgDataOwner, peer, add, false, with(fill(), ownA+8, old+5)},
		{"store/UpgAck", coherence.MsgUpgAck, home, nil, true, with(fill(), ownA+8, 0xbeef)},
		{"rmw/UpgAck", coherence.MsgUpgAck, home, add, true, with(fill(), ownA+8, old+5)},
		{"failed-cas/DataE", coherence.MsgDataE, home, cas, false, fill()},
	} {
		r := newOwnerRig(t)
		from := 0
		if c.shared {
			r.l.Load(r.now, ownA, func(uint64) {})
			r.deliver(coherence.MsgDataS, ownA, home, 0, fill())
			from = stateS
			r.reset()
		}
		var got uint64
		done := false
		r.now++
		if c.f == nil {
			r.l.Store(r.now, ownA+8, 0xbeef, func() { done = true })
		} else {
			r.l.RMW(r.now, ownA+8, c.f, func(v uint64) { got, done = v, true })
		}
		r.expectWire(wire{coherence.MsgGetX, home, ownA})
		if w := r.l.Cache.Peek(ownA); c.shared != (w != nil && w.Busy) {
			t.Fatalf("%s: Shared copy pinned=%v, want %v", c.name, !c.shared, c.shared)
		}
		if c.shared && r.l.Stats.WriteMissShared.Value() != 1 || !c.shared && r.l.Stats.WriteMissInvalid.Value() != 1 {
			t.Fatalf("%s: write miss counted shared=%d invalid=%d", c.name,
				r.l.Stats.WriteMissShared.Value(), r.l.Stats.WriteMissInvalid.Value())
		}
		r.reset()
		var data []byte
		if c.typ != coherence.MsgUpgAck {
			data = fill()
		}
		r.deliver(c.typ, ownA, c.src, 0, data)
		r.expectWire(wire{coherence.MsgAck, home, ownA})
		r.expectHops([3]int{ownA, from, stateM})
		r.expectLine(ownA, stateM, c.data)
		if w := r.l.Cache.Peek(ownA); w.Busy {
			t.Fatalf("%s: line still pinned", c.name)
		}
		if !done || c.f != nil && got != old || r.l.Busy() {
			t.Fatalf("%s: write done=%v old %#x (want %#x) busy=%v", c.name, done, got, old, r.l.Busy())
		}
		if n := r.l.Stats.RMWLat.Count(); c.f != nil && n != 1 || c.f == nil && n != 0 {
			t.Fatalf("%s: %d RMW latencies observed", c.name, n)
		}
	}
}

// TestRequesterHits: a store or RMW that hits an owned line completes
// without a message and leaves it M with the write applied; the store's
// callback fires on the next cycle, the RMW's with the old value after
// the hit latency. A CAS that fails leaves an E line E.
func TestRequesterHits(t *testing.T) {
	old := uint64(0x1111111111111111) // own's fill
	for _, state := range []uint8{stateE, stateM} {
		for _, op := range []string{"store", "rmw", "failed-cas"} {
			r := newOwnerRig(t)
			r.own(state)
			base := r.line
			var got uint64
			done := false
			r.now++
			var ok bool
			want, to := base, uint8(stateM)
			switch op {
			case "store":
				ok = r.l.Store(r.now, ownA+16, 7, func() { done = true })
				want = with(base, ownA+16, 7)
			case "rmw":
				ok = r.l.RMW(r.now, ownA+16, func(v uint64) (uint64, bool) { return v + 1, true },
					func(v uint64) { got, done = v, true })
				want = with(base, ownA+16, old+1)
			default:
				ok = r.l.RMW(r.now, ownA+16, func(uint64) (uint64, bool) { return 0, false },
					func(v uint64) { got, done = v, true })
				to = state
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
			r.expectLine(ownA, to, want)
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
