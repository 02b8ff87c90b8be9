package tsocc

import (
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L1 line states (memsys.Way.State; 0 = Invalid).
const (
	stateS = iota + 1 // Shared: stale-tolerated, bounded hits, self-invalidated
	stateR            // SharedRO: eagerly invalidated on (rare) writes
	stateE            // Exclusive, clean
	stateM            // Modified
)

type l1Line struct {
	acnt   uint32 // accesses since last L2 fill (b.acnt)
	ts     uint32 // last-written timestamp (b.ts)
	tsOwn  bool   // ts was assigned by this core's own writes
	listed bool   // way sits in the L1's shared-way sweep index
}

// L1 is one core's TSO-CC private cache controller: the shared
// skeleton (coherence.L1Base, which serves both the requester's and the
// owner's side) plus line metadata, the timestamp source and last-seen
// tables, and self-invalidation.
type L1 struct {
	coherence.L1Base[l1Line]
	cfg config.TSOCC

	// sharedWays indexes the ways that entered Shared since the last
	// self-invalidation sweep (every transition into stateS appends the
	// way once, guarded by Meta.listed). Sweeps walk this list instead
	// of the whole array — self-invalidation on a potential acquire is
	// the protocol's most frequent array operation, and at large cache
	// geometries a full walk of the array dominated 64-core profiles.
	// Invalidate/Install zero Meta (clearing listed), so a recycled way
	// can re-appear in the list; the sweep's listed check makes the
	// duplicate a no-op. Way pointers are stable: a set's slot is
	// handed out once, in a slot block that never moves. Invariant: a
	// stateS line is always listed — an empty list proves the cache
	// holds no Shared line.
	sharedWays []*memsys.Way[l1Line]

	// Timestamp source (§3.3): a core-local counter incremented every
	// write-group, plus the reset epoch.
	tsSrc   uint32
	wgCount uint32
	epoch   uint8

	// Last-seen timestamp tables with their epoch-ids (Table 1).
	tsL1 lastSeen // per writer L1
	tsL2 lastSeen // per L2 tile (SharedRO timestamps)
}

// NewL1 builds core `core`'s TSO-CC L1.
func NewL1(core int, sys config.System, cfg config.TSOCC, net coherence.Network) *L1 {
	l := &L1{
		cfg:   cfg,
		tsSrc: tsFirst,
		tsL1:  newLastSeen(cfg.TSTableEntries, sys.Cores),
		tsL2:  newLastSeen(cfg.TSTableEntries, sys.Cores),
	}
	// Shared and SharedRO evictions are silent (§3.2, §3.4): no Evict.
	shared := uint8(stateS)
	if cfg.MaxAccesses() == 0 {
		shared = 0 // CC-shared-to-L2: Shared data is never cached locally
	}
	l.Init("tsocc", core, sys, net, coherence.L1Spec[l1Line]{
		Shared: shared, SharedRO: stateR, Excl: stateE, Mod: stateM,
		Handle: l.handle, Stamp: l.stamp, Downgrade: l.downgrade,
		OnData: l.maybeSelfInvalidate, Filled: l.filled, Wrote: l.wrote, WriteMiss: l.countWriteMiss,
	})
	return l
}

// ---- Timestamp source ----

// assignTS returns the timestamp for a write and advances the write-group
// counter, triggering a timestamp reset broadcast on wrap (§3.5).
func (l *L1) assignTS(now sim.Cycle) uint32 {
	if !l.cfg.Timestamps() {
		return tsInvalid
	}
	if l.ResetFault != nil && l.ResetFault() {
		// Reset-storm fault: roll the timestamp space over as if TSMax
		// were reached; the write below takes the first timestamp of
		// the new epoch, exactly like a write straddling a real wrap.
		l.wgCount = 0
		l.resetTS(now)
	}
	ts := l.tsSrc
	l.wgCount++
	if l.wgCount >= l.cfg.WriteGroupSize() {
		l.wgCount = 0
		if l.tsSrc >= l.cfg.TSMax() {
			l.resetTS(now)
		} else {
			l.tsSrc++
		}
	}
	return ts
}

func (l *L1) resetTS(now sim.Cycle) {
	l.Stats.TimestampResets.Inc()
	l.epoch = (l.epoch + 1) & uint8((1<<uint(l.cfg.EpochBits))-1)
	l.tsSrc = tsFirst
	for c := 0; c < l.Cores; c++ {
		if coherence.L1ID(c) != l.ID {
			l.Send(now, coherence.Msg{Type: coherence.MsgTSResetL1,
				Dst: coherence.L1ID(c), Epoch: l.epoch}, nil)
		}
		l.Send(now, coherence.Msg{Type: coherence.MsgTSResetL1,
			Dst: coherence.L2ID(c, l.Cores), Epoch: l.epoch}, nil)
	}
}

// sendableTS converts a line's stored timestamp into the (ts, valid)
// pair safe to put on the wire: timestamps ahead of the current source
// are from a previous epoch and are reported as the smallest valid
// timestamp, forcing conservative self-invalidation at the receiver.
func (l *L1) sendableTS(w *l1Line) (uint32, bool) {
	if !w.tsOwn || w.ts == tsInvalid || !l.cfg.Timestamps() {
		return tsInvalid, false
	}
	if w.ts > l.tsSrc {
		return tsSmallest, true
	}
	return w.ts, true
}

// ---- CorePort ----

// Load implements coherence.CorePort.
func (l *L1) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	if l.LoadBlocked(addr) {
		return false
	}
	// An evict fault runs the normal eviction path (silent for S/R,
	// PutE/PutM for E/M) and takes the miss below.
	if w := l.Cache.Lookup(addr); w != nil && !l.SelfEvicts(now, w) {
		switch w.State {
		case stateE, stateM:
			l.Stats.ReadHitPrivate.Inc()
		case stateR:
			l.Stats.ReadHitSRO.Inc()
		default: // stateS
			if w.Meta.acnt >= l.cfg.MaxAccesses() {
				l.Stats.ReadMissShared.Inc()
				l.IssueRead(now, addr, cb)
				return true
			}
			// Bounded Shared hit: stale data is permitted until the
			// access budget forces a re-request (write propagation, §3.1).
			w.Meta.acnt++
			l.Stats.ReadHitShared.Inc()
		}
		l.CompleteVal(now, cb, memsys.GetWord(l.Cache.Block(w), addr))
		return true
	}
	l.Stats.ReadMissInvalid.Inc()
	l.IssueRead(now, addr, cb)
	return true
}

// countWriteMiss is the L1Base hook that counts a write miss by the
// copy it finds.
func (l *L1) countWriteMiss(w *memsys.Way[l1Line]) {
	switch {
	case w != nil && w.State == stateS:
		l.Stats.WriteMissShared.Inc()
	case w != nil && w.State == stateR:
		l.Stats.WriteMissSRO.Inc()
	default:
		l.Stats.WriteMissInvalid.Inc()
	}
}

// Fence implements coherence.CorePort: fences unconditionally
// self-invalidate Shared lines (§3.6).
func (l *L1) Fence(now sim.Cycle, cb func()) bool {
	l.selfInvalidate(coherence.CauseFence)
	l.CompleteNext(now, cb)
	return true
}

// noteShared records w's transition into Shared in the sweep index.
func (l *L1) noteShared(w *memsys.Way[l1Line]) {
	if !w.Meta.listed {
		w.Meta.listed = true
		l.sharedWays = append(l.sharedWays, w)
	}
}

// selfInvalidate drops every Shared line (SharedRO, Exclusive and
// Modified lines survive). The walk covers only the shared-way index:
// listed ways that since left stateS (written, recycled, downgraded)
// are skipped, and an empty index proves the sweep would drop nothing.
func (l *L1) selfInvalidate(cause coherence.SelfInvCause) {
	l.Stats.SelfInvEvents[cause].Inc()
	if len(l.sharedWays) == 0 {
		return
	}
	var dropped int64
	for _, w := range l.sharedWays {
		if w.Meta.listed && w.Valid && w.State == stateS {
			l.Drop(w)
			dropped++
		}
		w.Meta.listed = false
	}
	l.sharedWays = l.sharedWays[:0]
	l.Stats.SelfInvLines.Add(dropped)
}

// maybeSelfInvalidate is the L1Base hook that applies the
// potential-acquire detection rules (§3.1 basic; §3.3 transitive
// reduction; §3.4 SharedRO; §3.5 epochs) to an incoming data response.
func (l *L1) maybeSelfInvalidate(m *coherence.Msg) {
	if m.Type != coherence.MsgDataSRO {
		if m.Owner == l.ID {
			return // last writer is this core: no invalidation needed
		}
		if !l.cfg.Timestamps() {
			// Basic protocol: every remote data response is treated as
			// a potential acquire.
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		writer := int(m.Owner)
		if writer < 0 || writer >= l.Cores {
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		// Missed or raced a timestamp reset: same action as the reset
		// message (§3.5 epoch-ids), then re-evaluate.
		l.tsL1.sync(writer, m.Epoch)
		if !m.TSValid || m.TS == tsInvalid || m.TS == tsSmallest {
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		last, ok := l.tsL1.get(writer)
		l.tsL1.update(writer, m.TS)
		if !ok {
			// Never read from this writer (or entry lost to a reset).
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		acquire := m.TS > last || (l.cfg.WriteGroupBits > 0 && m.TS == last)
		if acquire {
			l.selfInvalidate(coherence.CauseAcquireNonSRO)
		}
		return
	}

	// SharedRO response: timestamps come from the L2 tile (§3.4).
	if !l.cfg.Timestamps() {
		l.selfInvalidate(coherence.CauseInvalidTS)
		return
	}
	tile := coherence.Router(m.Src, l.Cores)
	l.tsL2.sync(tile, m.Epoch)
	if !m.TSValid || m.TS <= tsSmallest {
		l.selfInvalidate(coherence.CauseInvalidTS)
		return
	}
	last, ok := l.tsL2.get(tile)
	l.tsL2.update(tile, m.TS)
	if !ok {
		l.selfInvalidate(coherence.CauseInvalidTS)
		return
	}
	if m.TS > last {
		l.selfInvalidate(coherence.CauseAcquireSRO)
	}
}

// ---- Message handling ----

// handle serves the timestamp resets; L1Base serves every other
// message.
func (l *L1) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgTSResetL1:
		l.tsL1.reset(int(m.Src), m.Epoch)

	case coherence.MsgTSResetL2:
		l.tsL2.reset(coherence.Router(m.Src, l.Cores), m.Epoch)

	default:
		l.Panicf(now, "unexpected message %s", m)
	}
}

// filled is the L1Base hook for a read fill: the line takes the
// response's timestamp, not as its own, with a fresh access budget, and
// a Shared line enters the sweep index.
func (l *L1) filled(w *memsys.Way[l1Line], m *coherence.Msg) {
	w.Meta.acnt, w.Meta.ts, w.Meta.tsOwn = 0, m.TS, false
	if w.State == stateS {
		l.noteShared(w)
	}
}

// wrote is the L1Base hook for a write: the line takes the write's
// timestamp as its own, and a miss's Ack carries it to the L2, which
// stays busy until the Ack, serializing writers (§3.2).
func (l *L1) wrote(now sim.Cycle, w *memsys.Way[l1Line], ack *coherence.Msg) {
	w.Meta.ts, w.Meta.tsOwn = l.assignTS(now), true
	if ack != nil {
		ack.TS, ack.TSValid, ack.Epoch = w.Meta.ts, l.cfg.Timestamps(), l.epoch
	}
}

// stamp is the L1Base hook that puts the line's timestamp on the data
// an owner sends: DataOwner, WBData and PutM (§3.2, §3.5).
func (l *L1) stamp(m *coherence.Msg, w *l1Line) {
	m.TS, m.TSValid = l.sendableTS(w)
	m.Epoch = l.epoch
}

// downgrade is the L1Base hook for an owned line that answered a
// forwarded GetS: it stays Shared with a fresh access budget (none
// under CC-shared-to-L2, which caches no Shared data).
func (l *L1) downgrade(w *memsys.Way[l1Line]) {
	l.Set(w, stateS)
	w.Meta.acnt = 0
	l.noteShared(w)
	if l.cfg.MaxAccesses() == 0 {
		l.Drop(w)
	}
}
