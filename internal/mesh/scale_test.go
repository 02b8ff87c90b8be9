package mesh

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sumOcc totals the per-directional-link occupancy accounting armed by
// InstallMetrics.
func sumOcc(n *Network) int64 {
	var sum int64
	for d := 0; d < 4; d++ {
		for _, v := range n.occ[d] {
			sum += v
		}
	}
	return sum
}

// TestFlitHopConservation: across random geometries, traffic mixes and
// seeds, the network-wide flit-hop counter must equal the sum of
// per-link flit-cycle occupancy — every flit-hop the contention model
// charges is attributed to exactly one directional link, and no link
// records traffic the aggregate counter missed. This ties the per-hop
// reservation loop (walkLinks) to its observability mirror at every
// machine size the repo supports, ragged grids included.
func TestFlitHopConservation(t *testing.T) {
	for _, routers := range []int{2, 5, 12, 16, 37, 64, 128, 200, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			n, sinks, e := build(routers)
			reg := obs.NewRegistry()
			n.InstallMetrics(reg)
			rng := rand.New(rand.NewSource(seed*1000 + int64(routers)))
			const msgs = 200
			now := sim.Cycle(1)
			for i := 0; i < msgs; i++ {
				m := &coherence.Msg{
					Src: coherence.NodeID(rng.Intn(routers)),
					Dst: coherence.NodeID(rng.Intn(routers)),
				}
				if rng.Intn(2) == 0 {
					m.Type = coherence.MsgDataS
					m.Data = make([]byte, config.BlockSize)
				} else {
					m.Type = coherence.MsgInv
				}
				n.Send(now, m)
				now += sim.Cycle(rng.Intn(3))
			}
			drainByWake(t, e, n)
			delivered := 0
			for _, s := range sinks {
				delivered += len(s.got)
			}
			if delivered != msgs {
				t.Fatalf("routers=%d seed=%d: delivered %d of %d", routers, seed, delivered, msgs)
			}
			if got, want := sumOcc(n), n.FlitHops.Value(); got != want {
				t.Fatalf("routers=%d seed=%d: per-link occupancy sums to %d flit-hops, counter says %d",
					routers, seed, got, want)
			}
		}
	}
}

// TestHopDistanceMatchesXYRoute: at the scaling-target tile counts (and
// a ragged grid), HopDistance must agree with the path the router
// actually walks — a single-flit control message's FlitHops delta is
// exactly the number of links its XY route traversed.
func TestHopDistanceMatchesXYRoute(t *testing.T) {
	for _, routers := range []int{64, 128, 200, 256} {
		n, _, e := build(routers)
		reg := obs.NewRegistry()
		n.InstallMetrics(reg)
		rng := rand.New(rand.NewSource(int64(routers)))
		now := sim.Cycle(1)
		for i := 0; i < 100; i++ {
			a := coherence.NodeID(rng.Intn(routers))
			b := coherence.NodeID(rng.Intn(routers))
			before := n.FlitHops.Value()
			n.Send(now, &coherence.Msg{Type: coherence.MsgAck, Src: a, Dst: b})
			drainByWake(t, e, n)
			walked := n.FlitHops.Value() - before
			if want := int64(n.HopDistance(a, b)); walked != want {
				t.Fatalf("routers=%d: route %d->%d walked %d links, HopDistance says %d",
					routers, a, b, walked, want)
			}
			now += 50
		}
	}
}

// refXYStep is the routing step walkLinks used before it switched to
// per-message coordinates and increments: one XY decision per hop,
// re-deriving both routers' coordinates by division each time. Kept
// here as the referee.
func refXYStep(cols, r, dst int) (dir, next int) {
	rx, ry := r%cols, r/cols
	dx, dy := dst%cols, dst/cols
	switch {
	case rx < dx:
		return dirEast, r + 1
	case rx > dx:
		return dirWest, r - 1
	case ry < dy:
		return dirSouth, r + cols
	case ry > dy:
		return dirNorth, r - cols
	}
	panic("refXYStep: already at destination")
}

// linkHop is one traversed link: the outgoing direction and the router
// it leaves.
type linkHop struct{ dir, router int }

// refWalk is the per-hop reservation loop over refXYStep, on its own
// link table.
func refWalk(busy *[4][]sim.Cycle, cols int, latency, now sim.Cycle, flits, src, dst int) (at sim.Cycle, hops []linkHop) {
	t := now
	for r := src; r != dst; {
		d, next := refXYStep(cols, r, dst)
		depart := t
		if b := busy[d][r]; b > depart {
			depart = b
		}
		busy[d][r] = depart + sim.Cycle(flits)
		hops = append(hops, linkHop{d, r})
		t = depart + latency
		r = next
	}
	return t + sim.Cycle(flits-1) + 1, hops
}

// TestWalkLinksMatchesPerHopReferee: for every (src, dst) router pair on
// small, square, ragged and maximum-size grids, under the contention
// left behind by all earlier pairs, walkLinks must traverse the same
// links in the same order as the per-hop XY referee, leave identical
// reservations on every link, and return the same delivery cycle; and
// HopDistance must count exactly those links.
func TestWalkLinksMatchesPerHopReferee(t *testing.T) {
	for _, g := range []struct {
		name          string
		routers, rows int
	}{
		{"2x4", 8, 2},
		{"8x8", 64, 0},
		{"ragged37", 37, 0},   // 2 x 19, one slot empty
		{"ragged200", 200, 7}, // 7 x 29, three slots empty
		{"16x16", 256, 0},
	} {
		t.Run(g.name, func(t *testing.T) {
			n := New(Config{Routers: g.routers, Rows: g.rows, LinkLatency: 2})
			for i := 0; i < g.routers; i++ {
				n.Attach(coherence.NodeID(i), i, &sink{})
			}
			var ref [4][]sim.Cycle
			for d := range ref {
				ref[d] = make([]sim.Cycle, len(n.linkBusy[d]))
			}
			var before [4][]sim.Cycle
			for d := range before {
				before[d] = make([]sim.Cycle, len(n.linkBusy[d]))
			}
			now := sim.Cycle(1)
			for src := 0; src < g.routers; src++ {
				for dst := 0; dst < g.routers; dst++ {
					if src == dst {
						continue // Send never walks a co-located pair
					}
					flits := 1 + (src+dst)%5
					for d := range before {
						copy(before[d], n.linkBusy[d])
					}
					wantAt, wantHops := refWalk(&ref, n.cols, n.cfg.LinkLatency, now, flits, src, dst)
					gotAt := n.walkLinks(now, flits, src, dst)
					if gotAt != wantAt {
						t.Fatalf("%d->%d at cycle %d: delivery cycle %d, referee %d", src, dst, now, gotAt, wantAt)
					}
					// Each traversed link's reservation rose to a value that
					// grows along the path, so the changed links in ascending
					// order of their new value are the hop sequence.
					var gotHops []linkHop
					for d := range before {
						for r, b := range n.linkBusy[d] {
							if b != ref[d][r] {
								t.Fatalf("%d->%d: link (dir %d, router %d) reserved through %d, referee %d",
									src, dst, d, r, b, ref[d][r])
							}
							if b != before[d][r] {
								gotHops = append(gotHops, linkHop{d, r})
							}
						}
					}
					sort.Slice(gotHops, func(i, j int) bool {
						return n.linkBusy[gotHops[i].dir][gotHops[i].router] < n.linkBusy[gotHops[j].dir][gotHops[j].router]
					})
					if len(gotHops) != len(wantHops) {
						t.Fatalf("%d->%d: walked %v, referee %v", src, dst, gotHops, wantHops)
					}
					for i := range wantHops {
						if gotHops[i] != wantHops[i] {
							t.Fatalf("%d->%d: walked %v, referee %v", src, dst, gotHops, wantHops)
						}
					}
					if hd := n.HopDistance(coherence.NodeID(src), coherence.NodeID(dst)); hd != len(wantHops) {
						t.Fatalf("%d->%d: HopDistance %d, referee walked %d links", src, dst, hd, len(wantHops))
					}
					if (src*g.routers+dst)%7 == 0 {
						now++
					}
				}
			}
		})
	}
}
