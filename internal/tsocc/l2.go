package tsocc

import (
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
)

// L2 directory states (memsys.Way.State; invalid way = not present).
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
	dirty       bool              // data newer than memory
	wasModified bool              // written since the L2 obtained this copy
}

func (m l2Line) Owner() coherence.OwnerID { return m.owner }
func (m l2Line) Dirty() bool              { return m.dirty }

// L2 is one TSO-CC NUCA tile: the shared skeleton (coherence.DirBase)
// plus the sharing-vector-free directory states, the last-seen writer
// timestamps and the SharedRO timestamp source.
type L2 struct {
	coherence.DirBase[l2Line]
	cfg config.TSOCC

	membersBuf []int // scratch for coarse sharer expansion

	// Last-seen writer timestamps and epochs per L1 (Table 1, L2 side).
	tsL1 lastSeen

	// SharedRO timestamp source (§3.4) and its reset epoch (§3.5), plus
	// the two increment flags (dirty-eviction/modified-uncached, and
	// entered-Shared). Every memory writeback is a dirty eviction, so
	// the tile's memory port (flagMem) raises flag1.
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

// NewL2 builds TSO-CC tile `tile`. A line filled from memory is
// Uncached with no last writer.
func NewL2(tile int, sys config.System, cfg config.TSOCC, net coherence.Network, mem coherence.Memory) *L2 {
	t := &L2{
		cfg:    cfg,
		tsL1:   newLastSeen(0, sys.Cores),
		sroSrc: tsFirst,
	}
	t.Init("tsocc", tile, sys, net, flagMem{mem, &t.flag1}, "sro-inv", dirX, dirV, l2Line{owner: -1},
		t.handle, t.recall)
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

// flagMem is a tile's memory port: a writeback is a dirty line leaving
// the L2, condition 1 of the SharedRO timestamp increment (§3.4).
type flagMem struct {
	coherence.Memory
	flag1 *bool
}

func (m flagMem) WriteBlock(addr uint64, src []byte) {
	m.Memory.WriteBlock(addr, src)
	*m.flag1 = true
}

func (t *L2) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgGetS:
		if w := t.OnRequest(now, m); w != nil {
			t.serveGetS(now, m, w)
		}
	case coherence.MsgGetX:
		if w := t.OnRequest(now, m); w != nil {
			t.serveGetX(now, m, w)
		}
	case coherence.MsgPutE, coherence.MsgPutM:
		if w := t.OnPut(now, m); w != nil {
			if m.Type == coherence.MsgPutM {
				t.written(w, m.Src, m)
			}
			// Keep owner as last-writer for timestamp responses.
			t.Set(w, dirV)
		}
	case coherence.MsgAck:
		tx, w := t.OnAck(now, m)
		t.Set(w, dirX)
		w.Meta.owner = coherence.OwnerID(tx.Req.Requestor)
		w.Meta.sharerBits = 0
		if m.TSValid {
			// The ack finalizes a write: record its timestamp (§3.5's
			// "updated when the L2 updates a line's timestamp").
			w.Meta.wasModified = true
			w.Meta.ts = m.TS
			t.noteWriterTS(tx.Req.Requestor, m)
		}
		t.Retire(now, w, tx)
	case coherence.MsgInvAck:
		if tx, w := t.OnInvAck(now, m); tx != nil {
			// All SharedRO copies invalidated; grant exclusivity.
			ts, ep, valid := t.sroTS(&w.Meta)
			tx.Kind = coherence.TxAwaitAck
			w.Meta.sharerBits = 0
			t.respond(now, tx.Req.Requestor, coherence.MsgDataE, m.Addr, t.Cache.Block(w), -1, ts, ep, valid)
		}
	case coherence.MsgWBData:
		if tx, w := t.OnWBData(now, m); tx != nil {
			t.downgraded(now, m, w, tx)
		}
	case coherence.MsgTSResetL1:
		t.tsL1.reset(int(m.Src), m.Epoch)
	default:
		t.Panicf(now, "unexpected message %s", m)
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
		return w.ts, t.tsL1.epoch[writer], true
	}
	return tsSmallest, t.tsL1.epoch[writer], true
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
	// A reset may have raced ahead of us; adopt its epoch first.
	t.tsL1.sync(int(writer), m.Epoch)
	t.tsL1.update(int(writer), m.TS)
}

// ---- Request handling ----

// recall is the DirBase recall body. Shared lines are untracked: they
// go silently and sharers self-invalidate their stale copies eventually
// (§3.2); the lost timestamps later force mandatory self-invalidation
// at readers (invalid-ts responses). SharedRO lines are eagerly
// coherent: the coarse groups are recalled before the line goes (keeps
// R copies inclusive — see DESIGN.md interpretation notes).
func (t *L2) recall(now sim.Cycle, v *memsys.Way[l2Line]) int {
	if v.State != dirR {
		return 0
	}
	members := t.coarseMembersBuf(v.Meta.sharerBits)
	for _, c := range members {
		t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: v.Tag}, nil)
	}
	return len(members)
}

func (t *L2) serveGetS(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.State {
	case dirV:
		// Uncached: grant Exclusive (§3.2).
		if w.Meta.wasModified {
			t.flag1 = true // condition 1: modified line re-enters circulation
		}
		ts, ep, valid := t.respTS(&w.Meta)
		t.Begin(w, coherence.TxAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.Cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirS:
		if t.shouldDecay(&w.Meta) {
			t.DecayEvents.Inc()
			t.toSharedRO(now, w)
			t.serveGetS(now, m, w)
			return
		}
		ts, ep, valid := t.respTS(&w.Meta)
		t.respond(now, m.Requestor, coherence.MsgDataS, m.Addr, t.Cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirR:
		ts, ep, valid := t.sroTS(&w.Meta)
		w.Meta.sharerBits |= coarseBit(m.Requestor, t.Cores)
		t.respond(now, m.Requestor, coherence.MsgDataSRO, m.Addr, t.Cache.Block(w), -1, ts, ep, valid)
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
	t.Set(w, dirR)
	w.Meta.sharerBits = 0
	w.Meta.ts = t.assignSROTS(now)
	w.Meta.owner = -1
}

func (t *L2) serveGetX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.State {
	case dirV, dirS:
		// The lazy write path: respond immediately with the full line;
		// unaware sharers keep stale copies until they self-invalidate
		// (§3.2). No invalidation fan-out.
		ts, ep, valid := t.respTS(&w.Meta)
		t.Begin(w, coherence.TxAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.Cache.Block(w), w.Meta.owner.Node(), ts, ep, valid)
	case dirR:
		// Writes to SharedRO lines broadcast invalidations to the
		// coarse sharer groups (§3.4).
		members := t.coarseMembersBuf(w.Meta.sharerBits)
		// The requester's own copy is handled by FIFO ordering: its
		// Inv (if any) arrives before the later DataE.
		t.SROInvBcasts.Inc()
		if len(members) == 0 {
			ts, ep, valid := t.sroTS(&w.Meta)
			t.Begin(w, coherence.TxAwaitAck, m, 0)
			t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, t.Cache.Block(w), -1, ts, ep, valid)
			return
		}
		for _, c := range members {
			t.SendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: m.Addr}, nil)
		}
		t.Begin(w, coherence.TxInvs, m, len(members))
	}
}

func (t *L2) respond(now sim.Cycle, dst coherence.NodeID, typ coherence.MsgType, addr uint64,
	data []byte, owner coherence.NodeID, ts uint32, epoch uint8, tsValid bool) {
	t.SendAfterAccess(now, coherence.Msg{Type: typ, Dst: dst, Addr: addr, Owner: owner,
		TS: ts, Epoch: epoch, TSValid: tsValid}, data)
}

// ---- Completion handling ----

// written records the dirty data a line took from its writer's PutM or
// WBData, with the write's timestamp.
func (t *L2) written(w *memsys.Way[l2Line], writer coherence.NodeID, m *coherence.Msg) {
	w.Meta.dirty = true
	w.Meta.wasModified = true
	if m.TSValid {
		w.Meta.ts = m.TS
	} else {
		w.Meta.ts = tsInvalid
	}
	t.noteWriterTS(writer, m)
}

// downgraded completes a forwarded read once the previous owner's
// WBData is in the line.
func (t *L2) downgraded(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line], tx *coherence.Tx) {
	prevOwner := w.Meta.owner.Node()
	if m.Dirty || !t.cfg.SharedRO {
		// Modified by the previous owner (or no SharedRO state): enters
		// Shared (§3.4), last writer = previous owner.
		if m.Dirty {
			t.written(w, prevOwner, m)
		}
		t.Set(w, dirS)
		w.Meta.owner = coherence.OwnerID(prevOwner)
		t.flag2 = true // condition 2: line entered Shared
	} else {
		// Unmodified by the previous owner: SharedRO.
		t.toSharedRO(now, w)
		w.Meta.sharerBits = coarseBit(tx.Req.Requestor, t.Cores)
		if !m.NoCopy {
			w.Meta.sharerBits |= coarseBit(prevOwner, t.Cores)
		}
	}
	t.Retire(now, w, tx)
}
