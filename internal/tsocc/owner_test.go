package tsocc

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
// GetS / GetX and for a directory recall — with the line's timestamp
// as the owner may put it on the wire — and what it sends for each when
// the request crossed its own PutM and is served from the eviction
// buffer. A DataOwner's Dirty field is read by no receiver, so it is
// not pinned.

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

// ownerRig is one real TSO-CC L1 with a one-line array on a recording
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

// newOwnerRig builds the owner with a write-group size of 1, so every
// write advances its timestamp source.
func newOwnerRig(t *testing.T, cfg config.TSOCC) *ownerRig {
	sys := config.Small(4)
	sys.L1Size, sys.L1Ways = config.BlockSize, 1
	r := &ownerRig{t: t, net: &recNet{}, now: 10}
	r.l = NewL1(owner, sys, cfg, r.net)
	r.e = sim.NewEngine(1 << 20)
	r.e.Register(r.l)
	r.e.RunWindow(3)
	r.l.Transition = func(addr uint64, from, to int) { r.hops = append(r.hops, [3]int{int(addr), from, to}) }
	return r
}

// deliver hands the L1 one message (data responses name no last
// writer) and lets it handle it.
func (r *ownerRig) deliver(typ coherence.MsgType, addr uint64, src, req coherence.NodeID, data []byte) {
	m := r.net.pool.Get()
	m.Type, m.Addr, m.Src, m.Dst, m.Requestor, m.Owner = typ, addr, src, coherence.L1ID(owner), req, -1
	m.SetData(data)
	r.now++
	r.l.Deliver(r.now, m)
	r.l.Tick(r.now)
}

// reset forgets what was sent and reported so far.
func (r *ownerRig) reset() { r.net.sent, r.hops = nil, nil }

// own brings ownA into state E (a sole reader's exclusive grant) or M
// (a write miss, which takes timestamp 2), then forgets the set-up
// traffic.
func (r *ownerRig) own(state uint8) {
	fill := bytes.Repeat([]byte{0x11}, config.BlockSize)
	if state == stateE {
		r.l.Load(r.now, ownA, func(uint64) {})
	} else {
		r.l.Store(r.now, ownA+8, 0xbeef, func() {})
	}
	r.deliver(coherence.MsgDataE, ownA, r.l.Home(ownA), 0, fill)
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
// and checks the PutM that leaves, carrying the line's timestamp ts.
func (r *ownerRig) evictOwned(ts uint32) {
	r.l.Load(r.now, ownB, func(uint64) {})
	r.reset()
	r.deliver(coherence.MsgDataS, ownB, r.l.Home(ownB), 0, make([]byte, config.BlockSize))
	r.expect(sent{typ: coherence.MsgPutM, dst: r.l.Home(ownA), dirty: true, data: r.line, ts: ts, tsValid: true})
	r.expectHops([3]int{ownA, stateM, 0}, [3]int{ownB, 0, stateS})
	if r.l.Cache.Peek(ownA) != nil || !r.l.Busy() {
		r.t.Fatal("evicted line still cached, or its eviction buffer entry already gone")
	}
	r.reset()
}

// sent is the part of a message the owner side is pinned on.
type sent struct {
	typ     coherence.MsgType
	dst     coherence.NodeID
	dirty   bool
	noCopy  bool
	data    []byte // nil: no payload
	ts      uint32
	tsValid bool
	epoch   uint8
}

func (r *ownerRig) expect(want ...sent) {
	r.t.Helper()
	if len(r.net.sent) != len(want) {
		r.t.Fatalf("sent %d messages %v, want %d", len(r.net.sent), r.net.sent, len(want))
	}
	for i, w := range want {
		m := r.net.sent[i]
		dataOwner := w.typ == coherence.MsgDataOwner
		if m.Type != w.typ || m.Dst != w.dst || m.Addr != ownA || m.Src != coherence.L1ID(owner) ||
			!(m.Dirty == w.dirty || dataOwner) || m.NoCopy != w.noCopy || !bytes.Equal(m.Data, w.data) ||
			m.TS != w.ts || m.TSValid != w.tsValid || m.Epoch != w.epoch ||
			dataOwner && m.Owner != coherence.L1ID(owner) {
			r.t.Fatalf("message %d: %s dirty=%v nocopy=%v valid=%v, want %+v",
				i, &m, m.Dirty, m.NoCopy, m.TSValid, w)
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
// a Shared copy (none under CC-shared-to-L2); a forwarded GetX with
// data to the requester, dropping the line; and a recall with a
// writeback to the recalling tile. Each carries the owner's own write
// timestamp; an E line, never written here, carries none.
func TestOwnerServesForwardsAndRecalls(t *testing.T) {
	tile0, req := coherence.L2ID(0, 4), coherence.L1ID(other)
	for _, state := range []uint8{stateE, stateM} {
		dirty := state == stateM
		ts, valid := tsInvalid, false
		if dirty {
			ts, valid = tsFirst, true
		}

		r := newOwnerRig(t, config.C12x0())
		r.own(state)
		r.deliver(coherence.MsgFwdGetS, ownA, tile0, req, nil)
		r.expect(sent{typ: coherence.MsgDataOwner, dst: req, data: r.line, ts: ts, tsValid: valid},
			sent{typ: coherence.MsgWBData, dst: tile0, dirty: dirty, data: r.line, ts: ts, tsValid: valid})
		r.expectHops([3]int{ownA, int(state), stateS})
		if w := r.l.Cache.Peek(ownA); w == nil || w.Meta.acnt != 0 || !w.Meta.listed {
			t.Fatal("downgraded copy lost, or not a fresh Shared line in the sweep index")
		}

		r = newOwnerRig(t, config.C12x0())
		r.own(state)
		r.deliver(coherence.MsgFwdGetX, ownA, tile0, req, nil)
		r.expect(sent{typ: coherence.MsgDataOwner, dst: req, data: r.line, ts: ts, tsValid: valid})
		r.expectHops([3]int{ownA, int(state), 0})

		r = newOwnerRig(t, config.C12x0())
		r.own(state)
		r.deliver(coherence.MsgInv, ownA, tile0, 0, nil)
		r.expect(sent{typ: coherence.MsgWBData, dst: tile0, dirty: dirty, data: r.line, ts: ts, tsValid: valid})
		r.expectHops([3]int{ownA, int(state), 0})
		if r.l.Stats.InvalidationsReceived.Value() != 1 {
			t.Fatal("recall not counted as an invalidation")
		}
	}

	// CC-shared-to-L2 caches no Shared data: the downgrade drops the
	// copy. It has no timestamps.
	r := newOwnerRig(t, config.CCSharedToL2())
	r.own(stateM)
	r.deliver(coherence.MsgFwdGetS, ownA, tile0, req, nil)
	r.expect(sent{typ: coherence.MsgDataOwner, dst: req, data: r.line},
		sent{typ: coherence.MsgWBData, dst: tile0, dirty: true, data: r.line})
	r.expectHops([3]int{ownA, stateM, stateS}, [3]int{ownA, stateS, 0})
}

// TestOwnerServesFromEvictionBuffer: a forward or recall that crossed
// the owner's PutM is served from the eviction buffer with the same
// data and the timestamp the line was evicted with; the forwarded
// GetS's writeback says the owner kept no copy. If the owner's
// timestamp source wrapped since the eviction, the buffered timestamp
// belongs to the previous epoch and goes out as the smallest valid one
// under the new epoch. No state changes, and the PutAck then releases
// the entry.
func TestOwnerServesFromEvictionBuffer(t *testing.T) {
	tile0, req := coherence.L2ID(0, 4), coherence.L1ID(other)
	for _, wrapped := range []bool{false, true} {
		// A second write gives the line timestamp 3, above the first
		// timestamp a wrapped source hands out.
		ts, epoch := tsFirst+1, uint8(0)
		if wrapped {
			ts, epoch = tsSmallest, 1
		}
		for _, c := range []struct {
			typ  coherence.MsgType
			want func(line []byte) []sent
		}{
			{coherence.MsgFwdGetS, func(line []byte) []sent {
				return []sent{
					{typ: coherence.MsgDataOwner, dst: req, data: line, ts: ts, tsValid: true, epoch: epoch},
					{typ: coherence.MsgWBData, dst: tile0, dirty: true, noCopy: true, data: line, ts: ts, tsValid: true, epoch: epoch}}
			}},
			{coherence.MsgFwdGetX, func(line []byte) []sent {
				return []sent{{typ: coherence.MsgDataOwner, dst: req, data: line, ts: ts, tsValid: true, epoch: epoch}}
			}},
			{coherence.MsgInv, func(line []byte) []sent {
				return []sent{{typ: coherence.MsgWBData, dst: tile0, dirty: true, data: line, ts: ts, tsValid: true, epoch: epoch}}
			}},
		} {
			r := newOwnerRig(t, config.C12x0())
			r.own(stateM)
			r.now++
			r.l.Store(r.now, ownA+8, 0xbeef, func() {}) // a hit: same data, timestamp 3
			r.reset()
			r.evictOwned(tsFirst + 1)
			if wrapped {
				r.l.resetTS(r.now)
				r.reset()
			}
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
}

// TestInvForAbsentLineAcks: an invalidation for a line the L1 no longer
// holds (a silently evicted Shared or SharedRO copy) is acknowledged.
func TestInvForAbsentLineAcks(t *testing.T) {
	r := newOwnerRig(t, config.C12x3())
	tile0 := coherence.L2ID(0, 4)
	r.deliver(coherence.MsgInv, ownA, tile0, 0, nil)
	r.expect(sent{typ: coherence.MsgInvAck, dst: tile0})
	r.expectHops()
}

// TestOwnerServesFromCleanEviction: an E line leaves with a data-less,
// unstamped PutE; a forwarded GetS that crossed it is served from the
// buffer with a clean writeback, and without a timestamp: the owner
// never wrote the line.
func TestOwnerServesFromCleanEviction(t *testing.T) {
	tile0, req := coherence.L2ID(0, 4), coherence.L1ID(other)
	r := newOwnerRig(t, config.C12x0())
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
