package tsocc

import (
	"fmt"
	"testing"
)

// mapLastSeen is a map-backed last-seen table with its epoch-ids: the
// reference model for eviction-order and epoch parity testing and the
// benchmark baseline. Capacity 0 is unbounded.
type mapLastSeen struct {
	m     map[int]uint32
	epoch map[int]uint8
	cap   int
}

func newMapLastSeen(capacity int) *mapLastSeen {
	return &mapLastSeen{m: make(map[int]uint32), epoch: make(map[int]uint8), cap: capacity}
}

func (t *mapLastSeen) get(src int) (uint32, bool) {
	v, ok := t.m[src]
	return v, ok
}

func (t *mapLastSeen) update(src int, ts uint32) {
	if cur, ok := t.m[src]; ok {
		if ts > cur {
			t.m[src] = ts
		}
		return
	}
	if t.cap > 0 && len(t.m) >= t.cap {
		victim, victimTS := -1, ^uint32(0)
		for src, ts := range t.m {
			if ts < victimTS || (ts == victimTS && (victim < 0 || src < victim)) {
				victim, victimTS = src, ts
			}
		}
		if victim >= 0 {
			delete(t.m, victim)
		}
	}
	t.m[src] = ts
}

func (t *mapLastSeen) drop(src int) { delete(t.m, src) }

func (t *mapLastSeen) reset(src int, epoch uint8) {
	delete(t.m, src)
	t.epoch[src] = epoch
}

func (t *mapLastSeen) sync(src int, epoch uint8) {
	if t.epoch[src] != epoch {
		t.reset(src, epoch)
	}
}

func (t *mapLastSeen) len() int { return len(t.m) }

// TestBoundedLastSeenParityWithMap drives the table and the map-backed
// referee through the same deterministic pseudo-random
// update/drop/reset/sync sequence, unbounded and at several capacities,
// and requires identical observable state after every operation — same
// hits, same timestamps, same epochs, same occupancy, and therefore the
// same eviction order.
func TestBoundedLastSeenParityWithMap(t *testing.T) {
	const sources = 8
	for _, capacity := range []int{0, 1, 2, 3, 5, sources, 12} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			arr := newLastSeen(capacity, sources)
			ref := newMapLastSeen(capacity)
			rng := uint64(0x9E3779B97F4A7C15) ^ uint64(capacity)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for op := 0; op < 4000; op++ {
				src := int(next() % sources)
				// Epochs from a small range so sync often finds the
				// recorded one and keeps the entry.
				epoch := uint8(next() % 3)
				switch next() % 8 {
				case 0:
					arr.drop(src)
					ref.drop(src)
				case 1:
					arr.reset(src, epoch)
					ref.reset(src, epoch)
				case 2, 3:
					arr.sync(src, epoch)
					ref.sync(src, epoch)
				default:
					// Timestamps from a small range so eviction ties
					// (equal smallest timestamps) actually occur.
					ts := tsFirst + uint32(next()%12)
					arr.update(src, ts)
					ref.update(src, ts)
				}
				if got, want := arr.len(), ref.len(); got != want {
					t.Fatalf("op %d: len = %d, map reference %d", op, got, want)
				}
				for s := 0; s < sources; s++ {
					gv, gok := arr.get(s)
					wv, wok := ref.get(s)
					if gv != wv || gok != wok {
						t.Fatalf("op %d: get(%d) = (%d,%v), map reference (%d,%v)",
							op, s, gv, gok, wv, wok)
					}
					if got, want := arr.epoch[s], ref.epoch[s]; got != want {
						t.Fatalf("op %d: epoch(%d) = %d, map reference %d", op, s, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkLastSeenBounded measures the bounded-table hot pair (update
// then get, the data-response path shape) for the table against the
// map-backed referee.
func BenchmarkLastSeenBounded(b *testing.B) {
	const sources = 32
	for _, capacity := range []int{4, 16} {
		b.Run(fmt.Sprintf("table/cap=%d", capacity), func(b *testing.B) {
			tbl := newLastSeen(capacity, sources)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := i & (sources - 1)
				tbl.update(src, tsFirst+uint32(i&1023))
				tbl.get(src)
			}
		})
		b.Run(fmt.Sprintf("map/cap=%d", capacity), func(b *testing.B) {
			tbl := newMapLastSeen(capacity)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := i & (sources - 1)
				tbl.update(src, tsFirst+uint32(i&1023))
				tbl.get(src)
			}
		})
	}
}
