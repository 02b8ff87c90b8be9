package mesi

import (
	"bytes"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// The exclusive owner's side of the protocol, pinned message by
// message: what an L1 holding a line in E or M sends for a forwarded
// GetS / GetX and for a directory recall, and what it sends for each
// when the request crossed its own PutM and is served from the
// eviction buffer. A DataOwner's Owner and Dirty fields are read by no
// receiver, so they are not pinned.

const (
	ownA  = 0x1000 // the owned line (home tile 0 of 4)
	ownB  = 0x2040 // conflicts with ownA in the one-line L1
	owner = 1      // the owning core
	other = 2      // the requester of forwarded GetS / GetX
)

// recNet is a Network that keeps a copy of every message sent.
type recNet struct {
	pool coherence.MsgPool
	sent []coherence.Msg
}

func (n *recNet) Send(_ sim.Cycle, m *coherence.Msg) {
	c := *m
	c.Data = append([]byte(nil), m.Data...)
	n.sent = append(n.sent, c)
	n.pool.Put(m)
}

func (n *recNet) MsgPool() *coherence.MsgPool { return &n.pool }

// ownerRig is one real MESI L1 with a one-line array on a recording
// network, plus the legality hops it reports.
type ownerRig struct {
	t    *testing.T
	l    *L1
	net  *recNet
	e    *sim.Engine // fires hit completions (see settle)
	now  sim.Cycle
	hops [][3]int // addr, from, to
	line []byte   // ownA's data as the owner holds it
}

func newOwnerRig(t *testing.T) *ownerRig {
	sys := config.Small(4)
	sys.L1Size, sys.L1Ways = config.BlockSize, 1
	r := &ownerRig{t: t, net: &recNet{}, now: 10}
	r.l = NewL1(owner, sys, r.net)
	r.e = sim.NewEngine(1 << 20)
	r.e.Register(r.l)
	r.e.RunWindow(3)
	r.l.Transition = func(addr uint64, from, to int) { r.hops = append(r.hops, [3]int{int(addr), from, to}) }
	return r
}

// deliver hands the L1 one message and lets it handle it.
func (r *ownerRig) deliver(typ coherence.MsgType, addr uint64, src, req coherence.NodeID, data []byte) {
	m := r.net.pool.Get()
	m.Type, m.Addr, m.Src, m.Dst, m.Requestor = typ, addr, src, coherence.L1ID(owner), req
	m.SetData(data)
	r.now++
	r.l.Deliver(r.now, m)
	r.l.Tick(r.now)
}

// reset forgets what was sent and reported so far.
func (r *ownerRig) reset() { r.net.sent, r.hops = nil, nil }

// own brings ownA into state E (a sole reader's exclusive grant) or M
// (a write miss), then forgets the set-up traffic.
func (r *ownerRig) own(state uint8) {
	fill := bytes.Repeat([]byte{0x11}, config.BlockSize)
	home := r.l.Home(ownA)
	if state == stateE {
		r.l.Load(r.now, ownA, func(uint64) {})
	} else {
		r.l.Store(r.now, ownA+8, 0xbeef, func() {})
	}
	r.deliver(coherence.MsgDataE, ownA, home, 0, fill)
	r.line = append([]byte(nil), fill...)
	if state == stateM {
		memsys.PutWord(r.line, ownA+8, 0xbeef)
	}
	if w := r.l.Cache.Peek(ownA); w == nil || w.State != state {
		r.t.Fatalf("set-up: ownA not in state %d", state)
	}
	r.reset()
}

// evictOwned evicts the M line ownA by filling the conflicting ownB,
// and checks the PutM that leaves.
func (r *ownerRig) evictOwned() {
	r.l.Load(r.now, ownB, func(uint64) {})
	r.reset()
	r.deliver(coherence.MsgDataS, ownB, r.l.Home(ownB), 0, make([]byte, config.BlockSize))
	r.expect(sent{coherence.MsgPutM, r.l.Home(ownA), true, false, r.line})
	r.expectHops([3]int{ownA, stateM, 0}, [3]int{ownB, 0, stateS})
	if r.l.Cache.Peek(ownA) != nil || !r.l.Busy() {
		r.t.Fatal("evicted line still cached, or its eviction buffer entry already gone")
	}
	r.reset()
}

// sent is the part of a message the owner side is pinned on.
type sent struct {
	typ    coherence.MsgType
	dst    coherence.NodeID
	dirty  bool
	noCopy bool
	data   []byte // nil: no payload
}

func (r *ownerRig) expect(want ...sent) {
	r.t.Helper()
	if len(r.net.sent) != len(want) {
		r.t.Fatalf("sent %d messages %v, want %d", len(r.net.sent), r.net.sent, len(want))
	}
	for i, w := range want {
		m := r.net.sent[i]
		dirtyOK := m.Dirty == w.dirty || w.typ == coherence.MsgDataOwner
		if m.Type != w.typ || m.Dst != w.dst || m.Addr != ownA || m.Src != coherence.L1ID(owner) ||
			!dirtyOK || m.NoCopy != w.noCopy || !bytes.Equal(m.Data, w.data) {
			r.t.Fatalf("message %d: %s dirty=%v nocopy=%v data=%x..., want %s to %d dirty=%v nocopy=%v",
				i, &m, m.Dirty, m.NoCopy, m.Data[:min(len(m.Data), 4)], w.typ, w.dst, w.dirty, w.noCopy)
		}
	}
}

func (r *ownerRig) expectHops(want ...[3]int) {
	r.t.Helper()
	if len(r.hops) != len(want) {
		r.t.Fatalf("hops %v, want %v", r.hops, want)
	}
	for i := range want {
		if r.hops[i] != want[i] {
			r.t.Fatalf("hops %v, want %v", r.hops, want)
		}
	}
}

// TestOwnerServesForwardsAndRecalls: an owned line answers a forwarded
// GetS with data to the requester and a writeback to its home, keeping
// a Shared copy; a forwarded GetX with data to the requester, dropping
// the line; and a recall with a writeback to the recalling tile.
func TestOwnerServesForwardsAndRecalls(t *testing.T) {
	tile0, req := coherence.L2ID(0, 4), coherence.L1ID(other)
	for _, state := range []uint8{stateE, stateM} {
		dirty := state == stateM

		r := newOwnerRig(t)
		r.own(state)
		r.deliver(coherence.MsgFwdGetS, ownA, tile0, req, nil)
		r.expect(sent{typ: coherence.MsgDataOwner, dst: req, data: r.line},
			sent{typ: coherence.MsgWBData, dst: tile0, dirty: dirty, data: r.line})
		r.expectHops([3]int{ownA, int(state), stateS})

		r = newOwnerRig(t)
		r.own(state)
		r.deliver(coherence.MsgFwdGetX, ownA, tile0, req, nil)
		r.expect(sent{typ: coherence.MsgDataOwner, dst: req, data: r.line})
		r.expectHops([3]int{ownA, int(state), 0})

		r = newOwnerRig(t)
		r.own(state)
		r.deliver(coherence.MsgInv, ownA, tile0, 0, nil)
		r.expect(sent{typ: coherence.MsgWBData, dst: tile0, dirty: dirty, data: r.line})
		r.expectHops([3]int{ownA, int(state), 0})
		if r.l.Stats.InvalidationsReceived.Value() != 1 {
			t.Fatal("recall not counted as an invalidation")
		}
	}
}

// TestOwnerServesFromEvictionBuffer: a forward or recall that crossed
// the owner's PutM is served from the eviction buffer with the same
// data; the forwarded GetS's writeback says the owner kept no copy. No
// state changes, and the PutAck then releases the entry.
func TestOwnerServesFromEvictionBuffer(t *testing.T) {
	tile0, req := coherence.L2ID(0, 4), coherence.L1ID(other)
	for _, c := range []struct {
		typ  coherence.MsgType
		want func(line []byte) []sent
	}{
		{coherence.MsgFwdGetS, func(line []byte) []sent {
			return []sent{{typ: coherence.MsgDataOwner, dst: req, data: line},
				{typ: coherence.MsgWBData, dst: tile0, dirty: true, noCopy: true, data: line}}
		}},
		{coherence.MsgFwdGetX, func(line []byte) []sent {
			return []sent{{typ: coherence.MsgDataOwner, dst: req, data: line}}
		}},
		{coherence.MsgInv, func(line []byte) []sent {
			return []sent{{typ: coherence.MsgWBData, dst: tile0, dirty: true, data: line}}
		}},
	} {
		r := newOwnerRig(t)
		r.own(stateM)
		r.evictOwned()
		rq := req
		if c.typ == coherence.MsgInv {
			rq = 0
		}
		r.deliver(c.typ, ownA, tile0, rq, nil)
		r.expect(c.want(r.line)...)
		r.expectHops()
		r.deliver(coherence.MsgPutAck, ownA, tile0, 0, nil)
		if r.l.Busy() {
			t.Fatalf("%s: PutAck did not release the eviction buffer", c.typ)
		}
	}
}

// TestInvForAbsentLineAcks: an invalidation for a line the L1 no longer
// holds (it crossed a PutS, or a silent eviction) is acknowledged.
func TestInvForAbsentLineAcks(t *testing.T) {
	r := newOwnerRig(t)
	tile0 := coherence.L2ID(0, 4)
	r.deliver(coherence.MsgInv, ownA, tile0, 0, nil)
	r.expect(sent{typ: coherence.MsgInvAck, dst: tile0})
	r.expectHops()
}

// TestOwnerServesFromCleanEviction: an E line leaves with a data-less
// PutE; a forwarded GetS that crossed it is served from the buffer with
// a clean writeback.
func TestOwnerServesFromCleanEviction(t *testing.T) {
	tile0, req := coherence.L2ID(0, 4), coherence.L1ID(other)
	r := newOwnerRig(t)
	r.own(stateE)
	r.l.Load(r.now, ownB, func(uint64) {})
	r.reset()
	r.deliver(coherence.MsgDataS, ownB, r.l.Home(ownB), 0, make([]byte, config.BlockSize))
	r.expect(sent{typ: coherence.MsgPutE, dst: tile0})
	r.reset()
	r.deliver(coherence.MsgFwdGetS, ownA, tile0, req, nil)
	r.expect(sent{typ: coherence.MsgDataOwner, dst: req, data: r.line},
		sent{typ: coherence.MsgWBData, dst: tile0, noCopy: true, data: r.line})
	r.expectHops()
}
