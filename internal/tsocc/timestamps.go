// Package tsocc implements the paper's contribution: TSO-CC, a lazy,
// consistency-directed coherence protocol for Total Store Order. It
// tracks no sharers for Shared data. Writes propagate to the shared L2
// in program order; reads of Shared lines hit locally only a bounded
// number of times (write propagation); potential acquires — detected
// with per-line timestamps against per-core last-seen tables (transitive
// reduction) — self-invalidate all Shared lines (r→r ordering). A
// SharedRO state excludes read-only data from self-invalidation, and a
// timestamp-reset/epoch-id scheme keeps timestamps finite (§3.2–§3.6).
package tsocc

import "repro/internal/coherence"

// Timestamp value conventions. 0 marks "never written / unknown". The
// smallest valid timestamp (1) is reserved as the value the L2 reports
// for lines whose timestamp predates the writer's last reset; receivers
// treat it as forcing self-invalidation, so fresh sources start above it
// (§3.5: "the next timestamp assigned after a reset must always be
// larger than the smallest valid timestamp").
const (
	tsInvalid  uint32 = 0
	tsSmallest uint32 = 1
	tsFirst    uint32 = 2
)

// lastSeen is a last-seen timestamp table with its epoch-ids (ts_L1 /
// ts_L2 and epoch_ids in the paper's Table 1), indexed by source id:
// one slot per possible source, for every capacity, because get/update
// sit on the data-response path (every remote response consults them).
// tsInvalid (0) marks an absent entry; stored timestamps are always >
// tsSmallest (callers filter invalid/smallest before updating).
//
// §3.3 lets the table hold fewer entries than there are sources: with
// capacity > 0, a new source arriving at capacity evicts the held one
// with the smallest timestamp, lowest source id on a tie: the entry
// whose loss costs the fewest skipped self-invalidations. Losing an
// entry is always safe: the reader treats the source as never-seen and
// self-invalidates conservatively. Eviction keeps the source's epoch.
//
// reset serves a timestamp-reset broadcast: forget the timestamp, adopt
// the new epoch (§3.5). sync does the same only when the epoch differs
// from the recorded one: a data response or writeback that overtook the
// broadcast.
type lastSeen struct {
	ts    []uint32 // per source; tsInvalid = absent
	epoch []uint8  // per source, kept across drops and evictions
	cap   int      // most sources held at once; 0 = unbounded
	n     int      // sources held
}

// newLastSeen builds a table for source ids in [0, sources) holding at
// most capacity of them (0 = unbounded).
func newLastSeen(capacity, sources int) lastSeen {
	return lastSeen{ts: make([]uint32, sources), epoch: make([]uint8, sources), cap: capacity}
}

func (t *lastSeen) get(src int) (uint32, bool) {
	v := t.ts[src]
	return v, v != tsInvalid
}

// update records ts for src (monotonic: stale timestamps are ignored),
// evicting first if src is new and the table is full.
func (t *lastSeen) update(src int, ts uint32) {
	cur := t.ts[src]
	if cur == tsInvalid {
		if t.cap > 0 && t.n >= t.cap {
			t.evict()
		}
		t.n++
	}
	if ts > cur {
		t.ts[src] = ts
	}
}

// evict drops the held source with the smallest timestamp, the lowest
// source id on a tie.
func (t *lastSeen) evict() {
	victim := -1
	for s, v := range t.ts {
		if v != tsInvalid && (victim < 0 || v < t.ts[victim]) {
			victim = s
		}
	}
	t.drop(victim)
}

func (t *lastSeen) drop(src int) {
	if t.ts[src] != tsInvalid {
		t.ts[src] = tsInvalid
		t.n--
	}
}

// reset drops src's timestamp and records its new epoch.
func (t *lastSeen) reset(src int, epoch uint8) {
	t.drop(src)
	t.epoch[src] = epoch
}

// sync resets src if epoch is not the one recorded for it.
func (t *lastSeen) sync(src int, epoch uint8) {
	if t.epoch[src] != epoch {
		t.reset(src, epoch)
	}
}

func (t *lastSeen) len() int { return t.n }

// coarseGroups returns the number of coarse-vector groups used when the
// L2's owner field is reused as a sharing vector for SharedRO lines
// (§3.4): log2(cores) bits, each covering a contiguous group of cores.
func coarseGroups(cores int) int {
	g := 0
	for v := cores - 1; v > 0; v >>= 1 {
		g++
	}
	if g == 0 {
		g = 1
	}
	return g
}

// coarseBit returns the group bit covering the given core.
func coarseBit(core coherence.NodeID, cores int) uint64 {
	g := coarseGroups(cores)
	return 1 << uint(int(core)*g/cores)
}

// appendCoarseMembers appends the cores covered by the set bits of vec
// to dst — the single implementation of the coarse-group mapping.
func appendCoarseMembers(dst []int, vec uint64, cores int) []int {
	g := coarseGroups(cores)
	for c := 0; c < cores; c++ {
		if vec&(1<<uint(c*g/cores)) != 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// coarseMembers lists the cores covered by the set bits of vec.
func coarseMembers(vec uint64, cores int) []int {
	return appendCoarseMembers(nil, vec, cores)
}
