package tsocc

import (
	"testing"

	"repro/internal/coherence"
)

// TestLastSeenEviction checks the bounded table's smallest-timestamp
// eviction policy.
func TestLastSeenEviction(t *testing.T) {
	tbl := newLastSeen(2, 8)
	tbl.update(1, 10)
	tbl.update(2, 20)
	tbl.update(3, 30) // evicts src 1 (smallest ts)
	if _, ok := tbl.get(1); ok {
		t.Fatal("smallest-ts entry not evicted")
	}
	if v, ok := tbl.get(2); !ok || v != 20 {
		t.Fatal("entry 2 lost")
	}
	if v, ok := tbl.get(3); !ok || v != 30 {
		t.Fatal("entry 3 missing")
	}
	if tbl.len() != 2 {
		t.Fatalf("len = %d, want 2", tbl.len())
	}
	// Updating an existing entry never evicts.
	tbl.update(2, 25)
	if tbl.len() != 2 {
		t.Fatal("in-place update changed occupancy")
	}
	// Monotonicity: stale updates are ignored.
	tbl.update(2, 5)
	if v, _ := tbl.get(2); v != 25 {
		t.Fatalf("stale update regressed entry to %d", v)
	}
}

// TestLastSeenUnbounded checks the slice-backed unbounded table keeps
// the map-backed semantics: never-seen sources miss, updates are
// monotonic, drops forget.
func TestLastSeenUnbounded(t *testing.T) {
	tbl := newLastSeen(0, 4)
	if _, ok := tbl.get(3); ok {
		t.Fatal("never-seen source reported present")
	}
	tbl.update(3, 10)
	if v, ok := tbl.get(3); !ok || v != 10 {
		t.Fatalf("get(3) = %d,%v after update", v, ok)
	}
	tbl.update(3, 5) // stale: ignored
	if v, _ := tbl.get(3); v != 10 {
		t.Fatalf("stale update regressed entry to %d", v)
	}
	tbl.update(3, 12)
	if v, _ := tbl.get(3); v != 12 {
		t.Fatalf("monotonic update lost: %d", v)
	}
	if tbl.len() != 1 {
		t.Fatalf("len = %d, want 1", tbl.len())
	}
	tbl.drop(3)
	if _, ok := tbl.get(3); ok {
		t.Fatal("dropped source still present")
	}
	if tbl.len() != 0 {
		t.Fatalf("len = %d after drop, want 0", tbl.len())
	}
}

// TestLastSeenResetVsSync pins where the two epoch steps differ: sync
// with the recorded epoch keeps the entry, reset with the same epoch
// drops it; sync with another epoch drops it and records that epoch.
func TestLastSeenResetVsSync(t *testing.T) {
	for _, capacity := range []int{0, 2} {
		tbl := newLastSeen(capacity, 4)
		tbl.reset(1, 3)
		tbl.update(1, 10)
		tbl.sync(1, 3)
		if v, ok := tbl.get(1); !ok || v != 10 {
			t.Fatalf("cap %d: sync with the recorded epoch dropped the entry (%d,%v)", capacity, v, ok)
		}
		tbl.reset(1, 3)
		if _, ok := tbl.get(1); ok || tbl.len() != 0 || tbl.epoch[1] != 3 {
			t.Fatalf("cap %d: reset with the same epoch kept the entry", capacity)
		}
		tbl.update(1, 12)
		tbl.sync(1, 4)
		if _, ok := tbl.get(1); ok || tbl.len() != 0 || tbl.epoch[1] != 4 {
			t.Fatalf("cap %d: sync with a new epoch kept the entry or the old epoch", capacity)
		}
	}
}

// TestCoarseVectorCoversAllCores: every core must be covered by the
// group bit the coarse vector assigns it.
func TestCoarseVectorCoversAllCores(t *testing.T) {
	for _, cores := range []int{2, 4, 8, 16, 32} {
		for c := 0; c < cores; c++ {
			vec := coarseBit(coherence.NodeID(c), cores)
			members := coarseMembers(vec, cores)
			found := false
			for _, m := range members {
				if m == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("cores=%d: core %d not covered by its own group bit", cores, c)
			}
		}
		// All groups together must cover every core exactly once set-wise.
		full := uint64(0)
		for c := 0; c < cores; c++ {
			full |= coarseBit(coherence.NodeID(c), cores)
		}
		if got := len(coarseMembers(full, cores)); got != cores {
			t.Fatalf("cores=%d: full vector covers %d cores", cores, got)
		}
	}
}
