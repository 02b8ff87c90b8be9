package mesh

import (
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/sim"
)

type rec struct {
	at  sim.Cycle
	seq uint64
}

// drainAll pops every cycle from just after base until the queue empties,
// recording delivery order.
func drainAll(t *testing.T, q *calQueue, from sim.Cycle) []rec {
	t.Helper()
	var got []rec
	var scratch []delivery
	now := from
	for q.pending > 0 {
		now++
		if now > from+1_000_000 {
			t.Fatal("queue failed to drain")
		}
		due := q.pop(now, scratch)
		scratch = due[:0]
		for _, d := range due {
			got = append(got, rec{at: d.at, seq: d.key.seq})
		}
	}
	return got
}

// TestCalQueueOrdering schedules a deterministic pseudo-random mix of
// near (ring) and far (overflow) deadlines and requires deliveries in
// exact (deadline, send-sequence) order.
func TestCalQueueOrdering(t *testing.T) {
	q := &calQueue{}
	rng := sim.NewRNG(7)
	var want []rec
	seq := uint64(0)
	for i := 0; i < 5000; i++ {
		var at sim.Cycle
		switch rng.Intn(3) {
		case 0:
			at = sim.Cycle(1 + rng.Intn(16)) // hot: near-future ring
		case 1:
			at = sim.Cycle(1 + rng.Intn(calBuckets-1)) // anywhere in ring
		default:
			at = sim.Cycle(calBuckets + rng.Intn(4*calBuckets)) // overflow heap
		}
		q.schedule(delivery{at: at, key: dkey{seq: seq}})
		want = append(want, rec{at: at, seq: seq})
		seq++
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	got := drainAll(t, q, 0)
	if len(got) != len(want) {
		t.Fatalf("delivered %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCalQueueOverflowMigration schedules interleaved batches while
// draining, crossing the ring horizon repeatedly, and checks order and
// earliest-deadline tracking at every step.
func TestCalQueueOverflowMigration(t *testing.T) {
	q := &calQueue{}
	rng := sim.NewRNG(99)
	seq := uint64(0)
	now := sim.Cycle(0)
	var last rec
	sawAny := false
	var scratch []delivery
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			at := now + 1 + sim.Cycle(rng.Intn(3*calBuckets))
			q.schedule(delivery{at: at, key: dkey{seq: seq}})
			seq++
		}
		// Verify the earliest-deadline cache against brute force.
		e, ok := q.earliestDeadline()
		if !ok {
			t.Fatal("pending deliveries but no earliest deadline")
		}
		brute := sim.Cycle(-1)
		for i := range q.buckets {
			for _, d := range q.buckets[i] {
				if brute < 0 || d.at < brute {
					brute = d.at
				}
			}
		}
		q.overflow.Scan(func(c sim.Cycle, _ *delivery) {
			if brute < 0 || c < brute {
				brute = c
			}
		})
		if e != brute {
			t.Fatalf("earliestDeadline = %d, brute force = %d", e, brute)
		}
		// Drain a few cycles (possibly past idle stretches).
		steps := 1 + sim.Cycle(rng.Intn(40))
		for c := sim.Cycle(0); c < steps && q.pending > 0; c++ {
			now++
			due := q.pop(now, scratch)
			scratch = due[:0]
			for _, d := range due {
				r := rec{at: d.at, seq: d.key.seq}
				if sawAny {
					if r.at < last.at || (r.at == last.at && r.seq < last.seq) {
						t.Fatalf("out of order: %+v after %+v", r, last)
					}
				}
				last, sawAny = r, true
				if d.at != now {
					t.Fatalf("delivered at %d an event due %d", now, d.at)
				}
			}
		}
	}
}

// TestCalQueueMissedDeadlinePanics documents the engine contract: a pop
// that skips past a pending deadline must fail loudly, not deliver late.
func TestCalQueueMissedDeadlinePanics(t *testing.T) {
	q := &calQueue{}
	q.schedule(delivery{at: 5})
	if _, ok := q.earliestDeadline(); !ok {
		t.Fatal("expected a deadline")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pop past a pending deadline should panic")
		}
	}()
	q.pop(9, nil)
}

// TestNetworkTickPastEmptyCycles exercises the Network-level idle jump:
// ticking only at delivery cycles (as the event engine does) must
// deliver everything that per-cycle ticking would.
func TestNetworkTickPastEmptyCycles(t *testing.T) {
	n := New(Config{Routers: 4})
	s := &sink{}
	for i := 0; i < 4; i++ {
		n.Attach(coherence.NodeID(i), i, s)
	}
	n.Send(0, &coherence.Msg{Type: coherence.MsgGetS, Src: 0, Dst: 3})
	n.Send(0, &coherence.Msg{Type: coherence.MsgDataS, Src: 1, Dst: 2,
		Data: make([]byte, config.BlockSize)})
	for n.Pending() > 0 {
		at := n.NextWake(0)
		if at == sim.WakeNever {
			t.Fatal("pending messages but no wake hint")
		}
		n.Tick(at)
	}
	if len(s.got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(s.got))
	}
}
