package tsocc

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
)

// L2 directory states (invalid way = not present).
const (
	dirV = iota + 1 // Uncached: valid at L2, no tracked L1 copy
	dirX            // Exclusive: owned by one L1 (owner pointer)
	dirS            // Shared: untracked sharers, last-writer + timestamp
	dirR            // SharedRO: read-only, coarse sharing vector
)

type l2Line struct {
	sharerBits  uint64            // coarse vector (R); reuses the owner field's storage
	ts          uint32            // writer ts (V/S) or tile SRO ts (R)
	owner       coherence.OwnerID // owner (X) / last writer (V, S)
	state       uint8
	dirty       bool // data newer than memory
	wasModified bool // written since the L2 obtained this copy
}

// Transaction kinds (coherence.Tx.Kind).
const (
	txMemFetch = iota + 1
	txAwaitAck // DataE sent; waiting for requester Ack
	txFwdGetS  // waiting for owner WBData
	txFwdGetX  // waiting for requester Ack after owner handoff
	txSROInv   // SharedRO write: counting broadcast InvAcks
	txEvict    // evicting: waiting for recall WBData / InvAcks
)

var txKindNames = []string{
	txMemFetch: "mem-fetch",
	txAwaitAck: "await-ack",
	txFwdGetS:  "fwd-gets",
	txFwdGetX:  "fwd-getx",
	txSROInv:   "sro-inv",
	txEvict:    "evict",
}

// L2 is one TSO-CC NUCA tile: the shared skeleton (coherence.DirBase)
// plus the sharing-vector-free directory states, the last-seen writer
// timestamps and the SharedRO timestamp source.
type L2 struct {
	coherence.DirBase
	cfg   config.TSOCC
	cache *memsys.Cache[l2Line]

	membersBuf []int // scratch for coarse sharer expansion

	// Last-seen writer timestamps and epochs per L1 (Table 1, L2 side).
	tsL1    lastSeen
	epochL1 []uint8

	// SharedRO timestamp source (§3.4) and its reset epoch (§3.5), plus
	// the two increment flags (dirty-eviction/modified-uncached, and
	// entered-Shared).
	sroSrc   uint32
	sroEpoch uint8
	flag1    bool
	flag2    bool

	// Tile-level stats.
	SROTransitions  stats.Counter
	SROInvBcasts    stats.Counter
	DecayEvents     stats.Counter
	TimestampResets stats.Counter
}

var _ coherence.Directory = (*L2)(nil)

// NewL2 builds TSO-CC tile `tile`.
func NewL2(tile, cores int, sys config.System, cfg config.TSOCC, net coherence.Network, mem coherence.Memory) *L2 {
	t := &L2{
		cfg:     cfg,
		cache:   memsys.NewCache[l2Line](sys.L2TileSize, sys.L2Ways),
		tsL1:    newLastSeen(0, cores),
		epochL1: make([]uint8, cores),
		sroSrc:  tsFirst,
	}
	t.Init("tsocc", tile, cores, sys.L2AccessLat, net, mem, txKindNames, t.handle, t.filled)
	t.AddCounter(&t.SROTransitions, ".sro_transitions")
	t.AddCounter(&t.SROInvBcasts, ".sro_inv_bcasts")
	t.AddCounter(&t.DecayEvents, ".decay_events")
	t.AddCounter(&t.TimestampResets, ".timestamp_resets")
	return t
}

// coarseMembersBuf expands a coarse sharer vector into preallocated
// scratch (valid until the next call).
func (t *L2) coarseMembersBuf(vec uint64) []int {
	t.membersBuf = appendCoarseMembers(t.membersBuf[:0], vec, t.Cores)
	return t.membersBuf
}

// TileStats reports SharedRO transitions, Shared->SharedRO decay events,
// SharedRO write broadcasts and tile timestamp resets (used by the
// system-level result collection and the decay ablation).
func (t *L2) TileStats() (sro, decay, bcasts, resets int64) {
	return t.SROTransitions.Value(), t.DecayEvents.Value(),
		t.SROInvBcasts.Value(), t.TimestampResets.Value()
}

// SnoopBlock implements coherence.Controller.
func (t *L2) SnoopBlock(addr uint64) ([]byte, bool) {
	if w := t.cache.Peek(addr); w != nil && w.Meta.state != dirX {
		return t.cache.Block(w), true
	}
	return nil, false
}

// SnoopOwner implements coherence.Directory.
func (t *L2) SnoopOwner(addr uint64) (coherence.NodeID, bool) {
	if w := t.cache.Peek(addr); w != nil && w.Meta.state == dirX {
		return w.Meta.owner.Node(), true
	}
	return 0, false
}

func (t *L2) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgGetS, coherence.MsgGetX:
		t.handleRequest(now, m)
	case coherence.MsgPutE, coherence.MsgPutM:
		t.handlePut(now, m)
	case coherence.MsgAck:
		t.handleAck(now, m)
	case coherence.MsgInvAck:
		t.handleInvAck(now, m)
	case coherence.MsgWBData:
		t.handleWBData(now, m)
	case coherence.MsgTSResetL1:
		src := int(m.Src)
		t.tsL1.drop(src)
		t.epochL1[src] = m.Epoch
	default:
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: unexpected message %s", t.ID, now, m))
	}
}

// ---- Timestamp helpers ----

// respTS computes the (ts, epoch, valid) triple for a non-SharedRO data
// response (§3.5): the line's timestamp if it provably belongs to the
// writer's current epoch (tsL1[writer] >= b.ts), otherwise the smallest
// valid timestamp.
func (t *L2) respTS(w *l2Line) (uint32, uint8, bool) {
	if !t.cfg.Timestamps() || w.ts == tsInvalid {
		return tsInvalid, 0, false
	}
	writer := int(w.owner)
	if writer < 0 || writer >= t.Cores {
		return tsInvalid, 0, false
	}
	last, ok := t.tsL1.get(writer)
	if ok && last >= w.ts {
		return w.ts, t.epochL1[writer], true
	}
	return tsSmallest, t.epochL1[writer], true
}

// sroTS computes the response timestamp for a SharedRO line.
func (t *L2) sroTS(w *l2Line) (uint32, uint8, bool) {
	if !t.cfg.Timestamps() || w.ts == tsInvalid {
		return tsInvalid, 0, false
	}
	if w.ts > t.sroSrc {
		return tsSmallest, t.sroEpoch, true
	}
	return w.ts, t.sroEpoch, true
}

// assignSROTS produces the timestamp for a line transitioning to
// SharedRO, incrementing the tile source when either condition flag is
// set (timestamp grouping for SharedRO lines, §3.4).
func (t *L2) assignSROTS(now sim.Cycle) uint32 {
	if !t.cfg.Timestamps() {
		return tsInvalid
	}
	if t.ResetFault != nil && t.ResetFault() {
		// Reset-storm fault: roll the SharedRO timestamp space over as
		// if TSMax were reached before assigning.
		t.resetSRO(now)
	}
	if t.flag1 || t.flag2 {
		t.flag1, t.flag2 = false, false
		if t.sroSrc >= t.cfg.TSMax() {
			t.resetSRO(now)
		} else {
			t.sroSrc++
		}
	}
	return t.sroSrc
}

func (t *L2) resetSRO(now sim.Cycle) {
	t.TimestampResets.Inc()
	t.sroEpoch = (t.sroEpoch + 1) & uint8((1<<uint(t.cfg.EpochBits))-1)
	t.sroSrc = tsFirst
	for c := 0; c < t.Cores; c++ {
		t.Send(now, coherence.Msg{Type: coherence.MsgTSResetL2,
			Dst: coherence.L1ID(c), Epoch: t.sroEpoch}, nil)
	}
}

// noteWriterTS records a writer's timestamp observed in an ack or
// writeback, advancing the tile's last-seen table.
func (t *L2) noteWriterTS(writer coherence.NodeID, m *coherence.Msg) {
	if !m.TSValid || m.TS <= tsSmallest {
		return
	}
	w := int(writer)
	if m.Epoch != t.epochL1[w] {
		// A reset raced ahead of us; adopt the new epoch first.
		t.tsL1.drop(w)
		t.epochL1[w] = m.Epoch
	}
	t.tsL1.update(w, m.TS)
}

// ---- Request handling ----

func (t *L2) handleRequest(now sim.Cycle, m *coherence.Msg) {
	if t.Txs.BusyLine(m.Addr) {
		t.Txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil {
		t.startFetch(now, m)
		return
	}
	if m.Type == coherence.MsgGetS {
		t.serveGetS(now, m, w)
	} else {
		t.serveGetX(now, m, w)
	}
}

func (t *L2) startFetch(now sim.Cycle, m *coherence.Msg) {
	v := t.cache.Victim(m.Addr)
	if v == nil {
		t.Txs.EnqueueRetry(m)
		return
	}
	if v.Valid {
		if t.cache.AnyBusy(m.Addr) {
			t.Txs.EnqueueRetry(m)
			return
		}
		if !t.evictLine(now, v) {
			t.Txs.EnqueueRetry(m)
			return
		}
	}
	t.cache.Install(v, m.Addr)
	v.Busy = true
	t.StartFetch(now, txMemFetch, m)
}

// filled is StartFetch's completion (see coherence.DirBase.Init).
func (t *L2) filled(addr uint64) []byte {
	way := t.cache.Peek(addr)
	if way == nil {
		return nil
	}
	t.Trans(addr, 0, dirV)
	way.Meta = l2Line{state: dirV, owner: -1}
	way.Busy = false
	return t.cache.Block(way)
}

// evictLine evicts v; true = completed synchronously.
func (t *L2) evictLine(now sim.Cycle, v *memsys.Way[l2Line]) bool {
	addr := v.Tag
	switch v.Meta.state {
	case dirV, dirS:
		// Shared lines are untracked: evict silently; sharers will
		// self-invalidate their stale copies eventually (§3.2). Their
		// timestamps are lost, which later forces mandatory
		// self-invalidation at readers (invalid-ts responses).
		if v.Meta.dirty {
			t.Mem.WriteBlock(addr, t.cache.Block(v))
			t.flag1 = true // condition 1: dirty line left the L2
		}
		t.Trans(addr, int(v.Meta.state), 0)
		t.cache.Invalidate(v)
		return true
	case dirR:
		// SharedRO lines are eagerly coherent; recall the coarse
		// groups before dropping (keeps R copies inclusive — see
		// DESIGN.md interpretation notes).
		members := t.coarseMembersBuf(v.Meta.sharerBits)
		if len(members) == 0 {
			if v.Meta.dirty {
				t.Mem.WriteBlock(addr, t.cache.Block(v))
				t.flag1 = true
			}
			t.Trans(addr, dirR, 0)
			t.cache.Invalidate(v)
			return true
		}
		for _, c := range members {
			t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: addr}, nil)
		}
		v.Busy = true
		t.Txs.New(addr, txEvict, nil, len(members))
		return false
	case dirX:
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: v.Meta.owner.Node(), Addr: addr}, nil)
		v.Busy = true
		t.Txs.New(addr, txEvict, nil, 1)
		return false
	}
	panic(fmt.Sprintf("tsocc: L2 %d cycle %d: evictLine on invalid state %d for %#x", t.ID, now, v.Meta.state, v.Tag))
}

func (t *L2) serveGetS(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		// Uncached: grant Exclusive (§3.2).
		if w.Meta.wasModified {
			t.flag1 = true // condition 1: modified line re-enters circulation
		}
		ts, ep, valid := t.respTS(&w.Meta)
		w.Busy = true
		t.Txs.New(m.Addr, txAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirX:
		if w.Meta.owner.Node() == m.Requestor {
			panic(fmt.Sprintf("tsocc: L2 %d cycle %d: GetS from current owner %s", t.ID, now, m))
		}
		w.Busy = true
		t.Txs.New(m.Addr, txFwdGetS, m, 0)
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetS, Dst: w.Meta.owner.Node(), Addr: m.Addr, Requestor: m.Requestor}, nil)
	case dirS:
		if t.shouldDecay(&w.Meta) {
			t.DecayEvents.Inc()
			t.toSharedRO(now, w)
			t.serveGetS(now, m, w)
			return
		}
		ts, ep, valid := t.respTS(&w.Meta)
		t.respond(now, m.Requestor, coherence.MsgDataS, m.Addr, t.cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirR:
		ts, ep, valid := t.sroTS(&w.Meta)
		w.Meta.sharerBits |= coarseBit(m.Requestor, t.Cores)
		t.respond(now, m.Requestor, coherence.MsgDataSRO, m.Addr, t.cache.Block(w), -1, ts, ep, valid)
	}
}

// shouldDecay applies the Shared→SharedRO decay rule (§3.4): the line has
// not been written for DecayWrites writes of its last writer, measured in
// timestamp distance scaled by the write-group size.
func (t *L2) shouldDecay(w *l2Line) bool {
	if !t.cfg.SharedRO || !t.cfg.Timestamps() || t.cfg.DecayWrites == 0 {
		return false
	}
	if w.ts <= tsSmallest {
		return false
	}
	writer := int(w.owner)
	if writer < 0 || writer >= t.Cores {
		return false
	}
	last, ok := t.tsL1.get(writer)
	if !ok || last < w.ts {
		return false
	}
	decayTS := t.cfg.DecayWrites >> uint(t.cfg.WriteGroupBits)
	if decayTS == 0 {
		decayTS = 1
	}
	return last-w.ts >= decayTS
}

// toSharedRO transitions a line to SharedRO, assigning a tile timestamp.
func (t *L2) toSharedRO(now sim.Cycle, w *memsys.Way[l2Line]) {
	t.SROTransitions.Inc()
	t.Trans(w.Tag, int(w.Meta.state), dirR)
	w.Meta.state = dirR
	w.Meta.sharerBits = 0
	w.Meta.ts = t.assignSROTS(now)
	w.Meta.owner = -1
}

func (t *L2) serveGetX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		ts, ep, valid := t.respTS(&w.Meta)
		w.Busy = true
		t.Txs.New(m.Addr, txAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirX:
		if w.Meta.owner.Node() == m.Requestor {
			panic(fmt.Sprintf("tsocc: L2 %d cycle %d: GetX from current owner %s", t.ID, now, m))
		}
		w.Busy = true
		t.Txs.New(m.Addr, txFwdGetX, m, 0)
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetX, Dst: w.Meta.owner.Node(), Addr: m.Addr, Requestor: m.Requestor}, nil)
	case dirS:
		// The lazy write path: respond immediately with the full line;
		// unaware sharers keep stale copies until they self-invalidate
		// (§3.2). No invalidation fan-out.
		ts, ep, valid := t.respTS(&w.Meta)
		w.Busy = true
		t.Txs.New(m.Addr, txAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirR:
		// Writes to SharedRO lines broadcast invalidations to the
		// coarse sharer groups (§3.4).
		members := t.coarseMembersBuf(w.Meta.sharerBits)
		// The requester's own copy is handled by FIFO ordering: its
		// Inv (if any) arrives before the later DataE.
		t.SROInvBcasts.Inc()
		if len(members) == 0 {
			ts, ep, valid := t.sroTS(&w.Meta)
			w.Busy = true
			t.Txs.New(m.Addr, txAwaitAck, m, 0)
			t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.cache.Block(w), -1, ts, ep, valid)
			return
		}
		for _, c := range members {
			t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: m.Addr}, nil)
		}
		w.Busy = true
		t.Txs.New(m.Addr, txSROInv, m, len(members))
	}
}

func (t *L2) respond(now sim.Cycle, dst coherence.NodeID, typ coherence.MsgType, addr uint64,
	data []byte, owner coherence.NodeID, ts uint32, epoch uint8, tsValid bool) {
	t.SendAfterAccess(now, coherence.Msg{Type: typ, Dst: dst, Addr: addr, Owner: owner,
		TS: ts, Epoch: epoch, TSValid: tsValid}, data)
}

// ---- Completion handling ----

func (t *L2) handleAck(now sim.Cycle, m *coherence.Msg) {
	tx := t.TxFor(now, m)
	if tx.Kind != txAwaitAck && tx.Kind != txFwdGetX {
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: stray Ack %s", t.ID, now, m))
	}
	w := t.cache.Peek(m.Addr)
	t.Trans(m.Addr, int(w.Meta.state), dirX)
	w.Meta.state = dirX
	w.Meta.owner = coherence.OwnerID(tx.Req.Requestor)
	w.Meta.sharerBits = 0
	if m.TSValid {
		// The ack finalizes a write: record its timestamp (§3.5's
		// "updated when the L2 updates a line's timestamp").
		w.Meta.wasModified = true
		w.Meta.ts = m.TS
		t.noteWriterTS(tx.Req.Requestor, m)
	}
	w.Busy = false
	t.Txs.Del(m.Addr, tx, true)
	t.Txs.DrainWaiting(now, m.Addr)
}

func (t *L2) handleInvAck(now sim.Cycle, m *coherence.Msg) {
	tx := t.TxFor(now, m)
	tx.AcksLeft--
	if tx.AcksLeft > 0 {
		return
	}
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txSROInv:
		// All SharedRO copies invalidated; grant exclusivity.
		ts, ep, valid := t.sroTS(&w.Meta)
		tx.Kind = txAwaitAck
		w.Meta.sharerBits = 0
		t.respond(now, tx.Req.Requestor, coherence.MsgDataE, m.Addr, t.cache.Block(w), -1, ts, ep, valid)
	case txEvict:
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: InvAck in tx kind %d", t.ID, now, tx.Kind))
	}
}

func (t *L2) handleWBData(now sim.Cycle, m *coherence.Msg) {
	tx := t.TxFor(now, m)
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txFwdGetS:
		prevOwner := w.Meta.owner.Node()
		copy(t.cache.Block(w), m.Data)
		if m.Dirty {
			w.Meta.dirty = true
			w.Meta.wasModified = true
			if m.TSValid {
				w.Meta.ts = m.TS
			} else {
				w.Meta.ts = tsInvalid
			}
			t.noteWriterTS(prevOwner, m)
			// Modified by the previous owner: enters Shared (§3.4),
			// last writer = previous owner.
			t.Trans(m.Addr, int(w.Meta.state), dirS)
			w.Meta.state = dirS
			w.Meta.owner = coherence.OwnerID(prevOwner)
			t.flag2 = true // condition 2: line entered Shared
		} else if t.cfg.SharedRO {
			// Unmodified by the previous owner: SharedRO.
			t.toSharedRO(now, w)
			w.Meta.sharerBits = coarseBit(tx.Req.Requestor, t.Cores)
			if !m.NoCopy {
				w.Meta.sharerBits |= coarseBit(prevOwner, t.Cores)
			}
		} else {
			t.Trans(m.Addr, int(w.Meta.state), dirS)
			w.Meta.state = dirS
			w.Meta.owner = coherence.OwnerID(prevOwner)
			t.flag2 = true
		}
		w.Busy = false
		t.Txs.Del(m.Addr, tx, true)
		t.Txs.DrainWaiting(now, m.Addr)
	case txEvict:
		if m.Dirty {
			copy(t.cache.Block(w), m.Data)
			w.Meta.dirty = true
		}
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: WBData in tx kind %d", t.ID, now, tx.Kind))
	}
}

func (t *L2) finishEvict(now sim.Cycle, w *memsys.Way[l2Line]) {
	addr := w.Tag
	if w.Meta.dirty {
		t.Mem.WriteBlock(addr, t.cache.Block(w))
		t.flag1 = true
	}
	tx, _ := t.Txs.Get(addr)
	t.Txs.Del(addr, tx, false)
	t.Trans(addr, int(w.Meta.state), 0)
	t.cache.Invalidate(w)
	t.Txs.DrainWaiting(now, addr)
}

func (t *L2) handlePut(now sim.Cycle, m *coherence.Msg) {
	if t.Txs.BusyLine(m.Addr) {
		t.Txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil || w.Meta.state != dirX || w.Meta.owner.Node() != m.Src {
		// Stale writeback (ownership moved while the Put was in
		// flight): acknowledge and drop.
		t.SendPutAck(now, m.Src, m.Addr)
		return
	}
	if m.Type == coherence.MsgPutM {
		copy(t.cache.Block(w), m.Data)
		w.Meta.dirty = true
		w.Meta.wasModified = true
		if m.TSValid {
			w.Meta.ts = m.TS
		} else {
			w.Meta.ts = tsInvalid
		}
		t.noteWriterTS(m.Src, m)
	}
	t.Trans(m.Addr, int(w.Meta.state), dirV)
	w.Meta.state = dirV
	// Keep owner as last-writer for timestamp responses.
	t.SendPutAck(now, m.Src, m.Addr)
}

// PrewarmStorage implements coherence.Controller.
func (t *L2) PrewarmStorage() { t.cache.Prewarm() }
