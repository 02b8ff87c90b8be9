package sim

import (
	"fmt"
	"testing"
)

// stimOut is one buffered cross-group stimulation awaiting the end of
// its window. Outboxes preserve emission order and drain in group order,
// which is deterministic (and sufficient: stimulation application order
// is not observable to toys).
type stimOut struct {
	target *stimToy
	at     Cycle
}

// buildGroupedToys is buildToys plus a group assignment: toy i lands in
// group i*k/n (contiguous ranges), and the cross-group lookahead floor
// is wired into every toy so the reference and windowed runs draw
// identical stimulation schedules.
func buildGroupedToys(seed uint64, look Cycle, log *[]workRec) (toys []*stimToy, groups int) {
	toys = buildToys(seed, log)
	n := len(toys)
	groups = 1 + int(seed%4)
	if groups > n {
		groups = n
	}
	for i, t := range toys {
		t.group = i * groups / n
		t.look = look
	}
	return toys, groups
}

// TestShardedEngineMatchesScanAllReference is the property gate for
// stepping the engine by hand, mirroring TestWakeSetMatchesScanAllReference:
// the toys are split into groups, stimulations between groups (floored
// at the lookahead) are held in per-group outboxes, and the engine runs
// RunWindow one lookahead-long window at a time, the outboxes landing
// between windows — from outside any dispatch, into cycles at or past
// the window's end. Across many random scenarios the windowed run must
// produce exactly the scan-all reference's work — same cycles, same
// per-cycle component order, same final cycle, no tick without work —
// for every seed and its derived group count. (The name is kept from
// the sharded engine that once ran these windows on goroutines; the
// engine is serial now and the property is the windows alone.)
func TestShardedEngineMatchesScanAllReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkWindowed(t, seed) })
	}
}

// checkWindowed runs one seeded scenario through the scan-all reference
// and the windowed engine and compares them (the property body shared
// with FuzzWakeWheel).
func checkWindowed(t *testing.T, seed uint64) {
	const look = Cycle(2)
	const limit = 1_000_000

	var refLog []workRec
	refToys, groups := buildGroupedToys(seed, look, &refLog)
	refCycles, _ := runReference(t, refToys, limit)

	var log []workRec
	outboxes := make([][]stimOut, groups)
	toys, _ := buildGroupedToys(seed, look, &log)
	for _, toy := range toys {
		s := toy.group
		toy.route = func(target *stimToy, at Cycle) {
			outboxes[s] = append(outboxes[s], stimOut{target: target, at: at})
		}
	}
	e := NewEngine(limit)
	for _, toy := range toys {
		toy.check = func() { checkWheel(t, e) }
		e.Register(toy)
	}
	for next := e.NextDue(); next != WakeNever; next = e.NextDue() {
		if next > limit {
			t.Fatalf("windowed run passed the cycle limit (next due %d)", next)
		}
		end := next + look
		e.RunWindow(end)
		for s := range outboxes {
			for _, o := range outboxes[s] {
				if o.at < end {
					t.Errorf("cross-group stim for cycle %d inside window ending %d", o.at, end)
				}
				o.target.AddStim(o.at)
			}
			outboxes[s] = outboxes[s][:0]
		}
		checkWheel(t, e)
	}
	for _, toy := range toys {
		if !toy.Done() {
			t.Fatalf("engine quiesced with toy %d still pending", toy.id)
		}
	}
	if e.Now() != refCycles {
		t.Fatalf("final cycles differ: windowed %d, reference %d", e.Now(), refCycles)
	}
	compareWork(t, log, refLog)
	assertNoIdleTicks(t, toys)
}
