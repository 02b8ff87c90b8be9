package sim

import (
	"fmt"
	"sort"
	"testing"
)

// stimOut is one buffered cross-shard stimulation awaiting its epoch
// barrier. Each sending shard's outbox preserves emission order; the
// merge drains outboxes in shard order, which is deterministic (and
// sufficient: stimulation application order is not observable to toys).
type stimOut struct {
	target *stimToy
	at     Cycle
}

// toyDoner reports one shard's toys all idle.
type toyDoner struct{ toys []*stimToy }

func (d *toyDoner) Done() bool {
	for _, t := range d.toys {
		if !t.Done() {
			return false
		}
	}
	return true
}

// buildShardedToys is buildToys plus a shard assignment: toy i lands on
// shard i*k/n (contiguous ranges, like the system's tile plan), and the
// cross-shard lookahead floor is wired into every toy so the reference
// and sharded runs draw identical stimulation schedules.
func buildShardedToys(seed uint64, look Cycle, log *[]workRec) (toys []*stimToy, shards int) {
	toys = buildToys(seed, log)
	n := len(toys)
	shards = 1 + int(seed%4)
	if shards > n {
		shards = n
	}
	for i, t := range toys {
		t.shard = i * shards / n
		t.look = look
	}
	return toys, shards
}

// TestShardedEngineMatchesScanAllReference is the parallel engine's
// property gate, mirroring TestWakeSetMatchesScanAllReference one level
// up: across many random scenarios of self-scheduled work, same-cycle
// intra-shard stimulation, and cross-shard stimulation (floored at the
// lookahead and routed through per-shard outboxes merged at epoch
// barriers — into shards whose clocks lag the sender's by anything from
// nothing to several turns of the due wheel), the sharded engine must
// produce exactly the scan-all reference's work — same cycles, same
// per-cycle component order, same final cycle, no tick without work —
// for every seed and its derived shard count.
func TestShardedEngineMatchesScanAllReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkSharded(t, seed) })
	}
}

// checkSharded runs one seeded scenario through the scan-all reference
// and the sharded engine and compares them (the property body shared
// with FuzzWakeWheel).
func checkSharded(t *testing.T, seed uint64) {
	const look = Cycle(2)
	const limit = 1_000_000

	var refLog []workRec
	refToys, shards := buildShardedToys(seed, look, &refLog)
	refCycles, _ := runReference(t, refToys, limit)

	// The sharded run keeps one work log per shard (each is appended to
	// by its own goroutine) and one outbox per shard.
	shLogs := make([]*[]workRec, shards)
	outboxes := make([][]stimOut, shards)
	shToys, _ := buildShardedToys(seed, look, nil)
	for _, toy := range shToys {
		l := shLogs[toy.shard]
		if l == nil {
			l = new([]workRec)
			shLogs[toy.shard] = l
		}
		toy.log = l
		s := toy.shard
		toy.route = func(target *stimToy, at Cycle) {
			outboxes[s] = append(outboxes[s], stimOut{target: target, at: at})
		}
	}
	se := NewShardedEngine(shards, look, limit)
	for _, toy := range shToys {
		sh := se.Shard(toy.shard)
		toy.check = func() { checkWheel(t, sh) }
		se.Register(toy.shard, toy.id, toy)
	}
	for s := 0; s < shards; s++ {
		d := &toyDoner{}
		for _, toy := range shToys {
			if toy.shard == s {
				d.toys = append(d.toys, toy)
			}
		}
		se.RegisterDoner(s, d)
	}
	se.SetMerge(func(windowEnd Cycle) {
		for s := range outboxes {
			for _, o := range outboxes[s] {
				if o.at < windowEnd {
					t.Errorf("cross-shard stim for cycle %d inside window ending %d", o.at, windowEnd)
				}
				o.target.AddStim(o.at)
				se.MarkShardActive(o.target.shard)
			}
			outboxes[s] = outboxes[s][:0]
		}
		for s := 0; s < shards; s++ {
			checkWheel(t, se.Shard(s))
		}
	})
	shCycles, err := se.Run()
	if err != nil {
		t.Fatal(err)
	}
	if shCycles != refCycles {
		t.Fatalf("final cycles differ: sharded %d, reference %d", shCycles, refCycles)
	}

	// Merge the per-shard logs into global (cycle, id) order — the order
	// the reference logged in, since it ticks components by ascending id
	// within each cycle.
	var merged []workRec
	for _, l := range shLogs {
		if l != nil {
			merged = append(merged, *l...)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].at != merged[j].at {
			return merged[i].at < merged[j].at
		}
		return merged[i].id < merged[j].id
	})
	compareWork(t, merged, refLog)
	assertNoIdleTicks(t, shToys)
}
