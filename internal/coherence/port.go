package coherence

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// CorePort is the memory interface an L1 controller presents to its core.
// All calls are non-blocking: they return false when the controller
// cannot accept the request this cycle (the core retries). Completion is
// signalled through the callback, at which point the operation is
// globally ordered per the protocol's rules.
type CorePort interface {
	// Load requests the 8-byte word at addr (8-aligned).
	Load(now sim.Cycle, addr uint64, cb func(val uint64)) bool
	// Store writes the 8-byte word at addr. The callback fires when the
	// write has retired per the protocol (for TSO-CC, when the write's
	// state change has been acknowledged locally, gating the next write).
	Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool
	// RMW atomically applies f to the word at addr and returns the old
	// value. f may decline the write by returning (0, false) — used by
	// compare-and-swap.
	RMW(now sim.Cycle, addr uint64, f func(old uint64) (uint64, bool), cb func(old uint64)) bool
	// Fence performs protocol fence actions (TSO-CC: self-invalidate
	// all Shared lines). The core drains its write buffer first.
	Fence(now sim.Cycle, cb func()) bool
}

// SelfInvCause classifies why a self-invalidation sweep ran (Figures 7/9).
type SelfInvCause int

// Self-invalidation causes, matching the paper's breakdown.
const (
	CauseInvalidTS     SelfInvCause = iota // invalid ts / no table entry / stale epoch
	CauseAcquireNonSRO                     // potential acquire, non-SharedRO response
	CauseAcquireSRO                        // potential acquire, SharedRO response
	CauseFence                             // explicit fence or atomic barrier
	NumSelfInvCauses
)

var causeNames = [NumSelfInvCauses]string{
	"invalid timestamp", "p. acquire (non-SharedRO)", "p. acquire (SharedRO)", "fence",
}

func (c SelfInvCause) String() string { return causeNames[c] }

// L1Stats aggregates the per-L1 event counts from which Figures 5–7 and 9
// are built. The MESI baseline populates only the fields that exist in an
// eager protocol.
type L1Stats struct {
	// Hits, split by line state (Figure 6).
	ReadHitPrivate  stats.Counter // Exclusive / Modified
	ReadHitShared   stats.Counter
	ReadHitSRO      stats.Counter
	WriteHitPrivate stats.Counter

	// Misses, split by the state the line was in (Figure 5).
	ReadMissInvalid  stats.Counter
	ReadMissShared   stats.Counter // Shared access-counter exhaustion (TSO-CC)
	WriteMissInvalid stats.Counter
	WriteMissShared  stats.Counter
	WriteMissSRO     stats.Counter

	// Self-invalidation accounting (Figures 7 and 9).
	DataResponses   stats.Counter // L1 data response messages received
	SelfInvEvents   [NumSelfInvCauses]stats.Counter
	SelfInvLines    stats.Counter // Shared lines actually dropped
	TimestampResets stats.Counter // local timestamp-source wraps

	// Eager-protocol events (MESI).
	InvalidationsReceived stats.Counter

	// RMWLat records issue-to-completion latency of atomic operations
	// (Figure 8).
	RMWLat stats.Latency

	rmwMergeCount int64
	rmwMergeSum   int64
}

// l1Counters lists every counter of an L1Stats with its metrics-series
// slug, once: SetNames, Counters and Merge all walk it.
var l1Counters = []struct {
	slug string
	of   func(*L1Stats) *stats.Counter
}{
	{"read_hit_private", func(s *L1Stats) *stats.Counter { return &s.ReadHitPrivate }},
	{"read_hit_shared", func(s *L1Stats) *stats.Counter { return &s.ReadHitShared }},
	{"read_hit_sro", func(s *L1Stats) *stats.Counter { return &s.ReadHitSRO }},
	{"write_hit_private", func(s *L1Stats) *stats.Counter { return &s.WriteHitPrivate }},
	{"read_miss_invalid", func(s *L1Stats) *stats.Counter { return &s.ReadMissInvalid }},
	{"read_miss_shared", func(s *L1Stats) *stats.Counter { return &s.ReadMissShared }},
	{"write_miss_invalid", func(s *L1Stats) *stats.Counter { return &s.WriteMissInvalid }},
	{"write_miss_shared", func(s *L1Stats) *stats.Counter { return &s.WriteMissShared }},
	{"write_miss_sro", func(s *L1Stats) *stats.Counter { return &s.WriteMissSRO }},
	{"data_responses", func(s *L1Stats) *stats.Counter { return &s.DataResponses }},
	{"selfinv_lines", func(s *L1Stats) *stats.Counter { return &s.SelfInvLines }},
	{"timestamp_resets", func(s *L1Stats) *stats.Counter { return &s.TimestampResets }},
	{"invalidations_received", func(s *L1Stats) *stats.Counter { return &s.InvalidationsReceived }},
	{"selfinv_events.invalid_ts", func(s *L1Stats) *stats.Counter { return &s.SelfInvEvents[CauseInvalidTS] }},
	{"selfinv_events.acquire_non_sro", func(s *L1Stats) *stats.Counter { return &s.SelfInvEvents[CauseAcquireNonSRO] }},
	{"selfinv_events.acquire_sro", func(s *L1Stats) *stats.Counter { return &s.SelfInvEvents[CauseAcquireSRO] }},
	{"selfinv_events.fence", func(s *L1Stats) *stats.Counter { return &s.SelfInvEvents[CauseFence] }},
}

// SetNames labels every counter in s with the given prefix (e.g.
// "l1.3"), so the metrics registry can render and sum them by name.
func (s *L1Stats) SetNames(prefix string) {
	for _, c := range l1Counters {
		c.of(s).SetName(prefix + "." + c.slug)
	}
}

// Counters returns every counter in s, for registry registration.
func (s *L1Stats) Counters() []*stats.Counter {
	cs := make([]*stats.Counter, len(l1Counters))
	for i, c := range l1Counters {
		cs[i] = c.of(s)
	}
	return cs
}

// Reads reports total read accesses.
func (s *L1Stats) Reads() int64 {
	return s.ReadHitPrivate.Value() + s.ReadHitShared.Value() + s.ReadHitSRO.Value() +
		s.ReadMissInvalid.Value() + s.ReadMissShared.Value()
}

// Writes reports total write accesses.
func (s *L1Stats) Writes() int64 {
	return s.WriteHitPrivate.Value() +
		s.WriteMissInvalid.Value() + s.WriteMissShared.Value() + s.WriteMissSRO.Value()
}

// Accesses reports total L1 accesses.
func (s *L1Stats) Accesses() int64 { return s.Reads() + s.Writes() }

// Misses reports total L1 misses.
func (s *L1Stats) Misses() int64 {
	return s.ReadMissInvalid.Value() + s.ReadMissShared.Value() +
		s.WriteMissInvalid.Value() + s.WriteMissShared.Value() + s.WriteMissSRO.Value()
}

// SelfInvTotal reports total self-invalidation sweep events.
func (s *L1Stats) SelfInvTotal() int64 {
	var t int64
	for i := range s.SelfInvEvents {
		t += s.SelfInvEvents[i].Value()
	}
	return t
}

// Merge accumulates other into s (for whole-system aggregation).
func (s *L1Stats) Merge(other *L1Stats) {
	for _, c := range l1Counters {
		c.of(s).Add(c.of(other).Value())
	}
	s.rmwMergeCount += other.RMWLat.Count() + other.rmwMergeCount
	s.rmwMergeSum += other.RMWLat.Sum() + other.rmwMergeSum
}

// MeanRMWLatency reports the mean RMW latency across merged stats.
func (s *L1Stats) MeanRMWLatency() float64 {
	count := s.RMWLat.Count() + s.rmwMergeCount
	sum := s.RMWLat.Sum() + s.rmwMergeSum
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
