package mesh

import (
	"fmt"
	"math/bits"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// dkey is a delivery's ordering key: the network's send sequence
// number. Deliveries due in the same cycle are handed out in key order.
type dkey struct{ seq uint64 }

type delivery struct {
	at  sim.Cycle
	key dkey
	msg *coherence.Msg
	dst Endpoint
	fid uint64 // timeline flow id (0 when no timeline is armed)
}

// calBuckets is the calendar horizon: deliveries due within this many
// cycles of the present live in the ring, everything further out in the
// overflow heap. Power of two so the bucket index is a mask. Mesh
// traversal plus contention rarely exceeds a few dozen cycles; memory
// fills (Base+Spread ≈ 230) are timer-side, not network-side, so 256
// comfortably covers the common case.
const calBuckets = 256

// calQueue is a calendar queue: a power-of-two bucketed ring buffer of
// pending deliveries indexed by delivery cycle, with the shared
// coherence.EventHeap for events beyond the ring horizon (ordered by
// the delivery's global send sequence, not heap insertion order). It
// replaces the former map[sim.Cycle][]delivery, which hashed and
// allocated on every send — the hottest path in the simulator. Bucket
// slices are recycled after delivery, so steady-state scheduling
// allocates nothing.
type calQueue struct {
	buckets  [calBuckets][]delivery
	occ      [calBuckets / 64]uint64 // occupancy bit per bucket
	base     sim.Cycle               // cycle of the most recent pop; ring holds (base, base+calBuckets)
	pending  int
	overflow coherence.EventHeap[delivery]
	heapSeq  uint64 // overflow insertion counter; pop re-sorts by key, so heap tie order is irrelevant

	earliest   sim.Cycle // cached earliest deadline
	earliestOK bool
}

func (q *calQueue) ringPut(d delivery) {
	idx := uint64(d.at) & (calBuckets - 1)
	q.buckets[idx] = append(q.buckets[idx], d)
	q.occ[idx>>6] |= 1 << (idx & 63)
}

// schedule inserts a delivery. at must be in the future relative to the
// last pop (the mesh always schedules at now+latency, latency >= 1).
func (q *calQueue) schedule(d delivery) {
	if d.at <= q.base {
		panic(fmt.Sprintf("mesh: scheduling delivery at %d, not after %d", d.at, q.base))
	}
	if d.at-q.base < calBuckets {
		q.ringPut(d)
	} else {
		q.heapSeq++
		q.overflow.Push(d.at, q.heapSeq, d)
	}
	if q.pending == 0 {
		q.earliest = d.at
		q.earliestOK = true
	} else if q.earliestOK && d.at < q.earliest {
		// Only a *valid* cache may be min-updated: adopting d.at while
		// the cache is stale could hide an earlier pending deadline.
		q.earliest = d.at
	}
	q.pending++
}

// pop removes and returns all deliveries due at exactly `now`, in send
// (seq) order, advancing the ring. Cycles between the previous pop and
// now must hold no deliveries: skipping a deadline is an engine
// scheduling bug, and silently dropping or late-delivering would corrupt
// the simulation, so it panics.
func (q *calQueue) pop(now sim.Cycle, scratch []delivery) []delivery {
	if q.earliestOK && q.earliest < now {
		panic(fmt.Sprintf("mesh: missed delivery deadline %d (now %d)", q.earliest, now))
	}
	q.base = now
	// Migrate overflow events that entered the horizon into the ring.
	for it := q.overflow.MinItem(); it != nil && it.Cycle-now < calBuckets; it = q.overflow.MinItem() {
		q.ringPut(q.overflow.Pop().Item)
	}
	b := now & (calBuckets - 1)
	due := q.buckets[b]
	if len(due) == 0 {
		return scratch[:0]
	}
	out := append(scratch[:0], due...)
	for i := range due {
		due[i] = delivery{}
	}
	q.buckets[b] = due[:0]
	q.occ[b>>6] &^= 1 << (b & 63)
	q.pending -= len(out)
	for i := range out {
		if out[i].at != now {
			panic(fmt.Sprintf("mesh: bucket entry for cycle %d popped at %d", out[i].at, now))
		}
	}
	// Entries may have been appended out of send order (a direct send
	// can land after an earlier-sent overflow migrant); restore it.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].key.seq < out[j-1].key.seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if q.earliestOK && q.earliest == now {
		q.earliestOK = false // recompute lazily
	}
	return out
}

// earliestDeadline reports the soonest pending delivery cycle.
func (q *calQueue) earliestDeadline() (sim.Cycle, bool) {
	if q.pending == 0 {
		return 0, false
	}
	if !q.earliestOK {
		e := sim.Cycle(-1)
		// Walk the occupancy bitmask word-wise from base+1: at most
		// calBuckets/64 + 1 iterations.
		for c := q.base + 1; c < q.base+calBuckets; {
			idx := uint64(c) & (calBuckets - 1)
			bit := idx & 63
			if word := q.occ[idx>>6] >> bit; word != 0 {
				e = c + sim.Cycle(bits.TrailingZeros64(word))
				break
			}
			c += sim.Cycle(64 - bit)
		}
		if it := q.overflow.MinItem(); it != nil && (e < 0 || it.Cycle < e) {
			e = it.Cycle
		}
		if e < 0 {
			panic("mesh: pending deliveries but none found")
		}
		q.earliest = e
		q.earliestOK = true
	}
	return q.earliest, true
}
