// Package mesh models the on-chip interconnect: a 2D mesh with XY
// dimension-order routing, per-link serialization at one flit per cycle,
// and flit-level traffic accounting — the quantities GARNET reports in
// the paper's evaluation (total flits, Figure 4).
//
// The model is a timed-delivery network: when a message is sent, its
// route is walked immediately and a delivery time is computed from the
// per-link busy state, reserving link bandwidth along the way. This
// captures serialization and contention without per-flit ticking, and is
// fully deterministic. The message then waits for that cycle as an
// engine completion event (sim.Waker.DoneAt), so the network keeps no
// queue of its own and is never ticked for a delivery.
package mesh

import (
	"fmt"
	"strconv"

	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Endpoint receives delivered messages.
type Endpoint interface {
	Deliver(now sim.Cycle, m *coherence.Msg)
}

// Config sets the mesh geometry and timing.
type Config struct {
	Routers     int       // number of routers (== cores in a tiled CMP)
	Rows        int       // mesh rows; 0 picks a near-square factorization
	LinkLatency sim.Cycle // cycles per hop for the head flit (default 1)
	LocalDelay  sim.Cycle // delivery delay between co-located endpoints
}

// Network is the mesh interconnect. It is registered with the engine
// ahead of the controllers it connects only to receive its sim.Waker:
// every Send files the delivery as a completion event through it, and
// the engine fires a cycle's completions in filing order before any
// component ticks, so a message due at cycle t is in its receiver's
// inbox when the receiver ticks at t, and messages due in the same cycle
// arrive in send order. The network has no work of its own: Tick does
// nothing and NextWake is WakeNever.
type Network struct {
	cfg  Config
	rows int
	cols int
	xy   []point // router index -> (column, row), tabulated so routing never divides

	// nodes is the endpoint directory, indexed directly by NodeID.
	// NodeIDs are dense by construction (L1s are 0..cores-1, L2s are
	// cores..2*cores-1), so a flat slice replaces the map that used to
	// sit on every Send's source/destination lookup; a nil ep marks an
	// unattached slot.
	nodes []attachment

	// linkBusy[d][r] is the cycle through which the outgoing link of
	// router r in direction d is reserved, stored relative to linkBase.
	// Every linkEpoch cycles the entries are rebased (stale reservations
	// clamp to zero), so the stored values stay bounded by one epoch
	// plus the worst-case backlog instead of growing with absolute
	// simulation time — arbitrarily long runs cannot overflow them.
	linkBusy [4][]sim.Cycle
	linkBase sim.Cycle

	waker    sim.Waker
	free     []*delivery // delivery records not in flight
	inFlight int         // messages sent and not yet delivered

	// delayHook, when set, may defer a delivery (fault injection: extra
	// latency within protocol-legal bounds). It sees the computed
	// delivery cycle and returns the cycle to use instead; implementations
	// must keep per-(src,dst) delivery order (see faults.Injector). Nil
	// on the hot path costs a single branch per Send.
	delayHook func(now, at sim.Cycle, src, dst coherence.NodeID) sim.Cycle

	// Pool recycles coherence messages flowing through this network.
	// Protocol controllers draw their messages from here and return them
	// once consumed.
	Pool coherence.MsgPool

	// Traffic accounting.
	MsgsSent     stats.Counter
	FlitsSent    stats.Counter    // flits injected (message size)
	FlitHops     stats.Counter    // flit-hops (size x hops traversed)
	FlitsByClass [2]stats.Counter // 0 = control, 1 = data

	// Observability (internal/obs); all zero/nil when disabled.
	// metricsOn arms link-occupancy and in-flight accounting: occ[d][r]
	// totals flit-cycles reserved on router r's direction-d link, and
	// inFlightMax is the high-water mark of undelivered messages. tl
	// receives send→deliver flow arrows and fault-delay instants; flowSeq
	// numbers the flows.
	metricsOn   bool
	occ         [4][]int64
	inFlightMax int
	tl          *obs.Timeline
	flowSeq     uint64
}

// delivery is one message in flight, filed with the engine as a
// completion event at its arrival cycle. Records are recycled through
// the network's free list, and fire is the record's deliver method,
// bound once when the record is made, so a send allocates nothing.
type delivery struct {
	n    *Network
	msg  *coherence.Msg
	dst  Endpoint
	fid  uint64 // timeline flow id (0 when no timeline is armed)
	fire func()
}

type attachment struct {
	router int
	ep     Endpoint
}

type point struct{ x, y int32 }

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// linkEpoch is the rebase period for link reservations (see linkBusy).
// Any power of two far above the worst-case link backlog works; the
// value only bounds how stale a reservation may get before the sweep
// clamps it.
const linkEpoch sim.Cycle = 1 << 20

// New builds a mesh network.
func New(cfg Config) *Network {
	if cfg.Routers <= 0 {
		panic("mesh: Routers must be positive")
	}
	if cfg.LinkLatency <= 0 {
		cfg.LinkLatency = 1
	}
	if cfg.LocalDelay <= 0 {
		cfg.LocalDelay = 1
	}
	rows := cfg.Rows
	if rows <= 0 {
		rows = nearSquareRows(cfg.Routers)
	}
	cols := (cfg.Routers + rows - 1) / rows
	n := &Network{
		cfg:  cfg,
		rows: rows,
		cols: cols,
	}
	for d := 0; d < 4; d++ {
		n.linkBusy[d] = make([]sim.Cycle, rows*cols)
	}
	n.xy = make([]point, rows*cols)
	for r := range n.xy {
		n.xy[r] = point{x: int32(r % cols), y: int32(r / cols)}
	}
	n.MsgsSent.SetName("mesh.msgs_sent")
	n.FlitsSent.SetName("mesh.flits_sent")
	n.FlitHops.SetName("mesh.flit_hops")
	n.FlitsByClass[0].SetName("mesh.flits_control")
	n.FlitsByClass[1].SetName("mesh.flits_data")
	return n
}

func nearSquareRows(n int) int {
	best := 1
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = r
		}
	}
	if best == 1 && n > 3 {
		// Prime router count: fall back to a 2-row arrangement.
		best = 2
	}
	return best
}

// Rows reports the mesh row count.
func (n *Network) Rows() int { return n.rows }

// Attach registers an endpoint at a router. Multiple endpoints may share
// a router (the co-located L1 and L2 tile).
func (n *Network) Attach(id coherence.NodeID, router int, ep Endpoint) {
	if router < 0 || router >= n.rows*n.cols {
		panic(fmt.Sprintf("mesh: router %d out of range", router))
	}
	if id < 0 {
		panic(fmt.Sprintf("mesh: negative node id %d", id))
	}
	for int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, attachment{})
	}
	n.nodes[id] = attachment{router: router, ep: ep}
}

// node resolves a NodeID to its attachment (nil ep = unattached).
func (n *Network) node(id coherence.NodeID) attachment {
	if id < 0 || int(id) >= len(n.nodes) {
		return attachment{}
	}
	return n.nodes[id]
}

// SetDelayHook installs a delivery-delay hook (see the delayHook
// field). Install before the first Send; passing nil removes it.
func (n *Network) SetDelayHook(h func(now, at sim.Cycle, src, dst coherence.NodeID) sim.Cycle) {
	n.delayHook = h
}

var dirNames = [4]string{"east", "west", "north", "south"}

// InstallMetrics registers the mesh's traffic counters with the
// registry and arms link-occupancy and in-flight accounting.
// Call before any Send.
func (n *Network) InstallMetrics(reg *obs.Registry) {
	n.metricsOn = true
	for d := 0; d < 4; d++ {
		n.occ[d] = make([]int64, n.rows*n.cols)
	}
	reg.RegisterCounter(&n.MsgsSent, &n.FlitsSent, &n.FlitHops,
		&n.FlitsByClass[0], &n.FlitsByClass[1])
	for d := 0; d < 4; d++ {
		d := d
		reg.Gauge("mesh.link_occ_flit_cycles."+dirNames[d], func() int64 {
			var sum int64
			for _, v := range n.occ[d] {
				sum += v
			}
			return sum
		})
	}
	reg.Gauge("mesh.link_occ_flit_cycles.max_link", func() int64 {
		var m int64
		for d := 0; d < 4; d++ {
			for _, v := range n.occ[d] {
				if v > m {
					m = v
				}
			}
		}
		return m
	})
	reg.Gauge("mesh.in_flight_max", func() int64 { return int64(n.inFlightMax) })
}

// SetTimeline installs a timeline sink for message send→deliver flow
// arrows (one thread per router on obs.PidMesh) and fault-delay
// instants. Call before any Send.
func (n *Network) SetTimeline(tl *obs.Timeline) {
	n.tl = tl
	tl.ProcessName(obs.PidMesh, fmt.Sprintf("mesh %dx%d", n.rows, n.cols))
	for r := 0; r < n.rows*n.cols; r++ {
		tl.ThreadName(obs.PidMesh, r, "router "+strconv.Itoa(r))
	}
}

// applyDelay runs the fault delay hook and, when a timeline is armed and
// the hook actually moved the delivery, drops a fault instant on the
// source router's track. Behavior is identical to calling the hook
// directly.
func (n *Network) applyDelay(now, at sim.Cycle, m *coherence.Msg, srcRouter int) sim.Cycle {
	at2 := n.delayHook(now, at, m.Src, m.Dst)
	if n.tl != nil && at2 != at {
		n.tl.Instant(obs.PidMesh, srcRouter, "fault.delay", int64(now))
	}
	return at2
}

// Send routes m from m.Src to m.Dst, reserving link bandwidth, and
// schedules delivery. It panics on unknown endpoints (a wiring bug).
func (n *Network) Send(now sim.Cycle, m *coherence.Msg) {
	src := n.node(m.Src)
	if src.ep == nil {
		panic(fmt.Sprintf("mesh: cycle %d: unknown src %d in %s", now, m.Src, m))
	}
	dst := n.node(m.Dst)
	if dst.ep == nil {
		panic(fmt.Sprintf("mesh: cycle %d: unknown dst %d in %s", now, m.Dst, m))
	}
	flits := m.Type.Flits()
	n.MsgsSent.Inc()
	n.FlitsSent.Add(int64(flits))
	if m.Type.CarriesData() {
		n.FlitsByClass[1].Add(int64(flits))
	} else {
		n.FlitsByClass[0].Add(int64(flits))
	}
	var fid uint64
	if n.tl != nil {
		n.flowSeq++
		fid = n.flowSeq
		n.tl.FlowStart(fid, obs.PidMesh, src.router, m.Type.String(), int64(now))
	}

	if src.router == dst.router {
		// Co-located endpoints: one cycle of crossbar delay, no
		// link traffic.
		at := now + n.cfg.LocalDelay
		if n.delayHook != nil {
			at = n.applyDelay(now, at, m, src.router)
		}
		n.schedule(at, m, dst.ep, fid)
		return
	}

	at := n.walkLinks(now, m.Type.Flits(), src.router, dst.router)
	if n.delayHook != nil {
		at = n.applyDelay(now, at, m, src.router)
	}
	n.schedule(at, m, dst.ep, fid)
}

// coords reports router r's mesh column and row.
func (n *Network) coords(r int) (x, y int) {
	p := n.xy[r]
	return int(p.x), int(p.y)
}

// walkLinks routes flits from router src to router dst at cycle now,
// reserving link bandwidth along the XY path (all column hops, then all
// row hops), and returns the delivery cycle.
func (n *Network) walkLinks(now sim.Cycle, flits, src, dst int) sim.Cycle {
	if now-n.linkBase >= linkEpoch {
		n.rebaseLinks(now)
	}
	sx, sy := n.coords(src)
	dx, dy := n.coords(dst)
	xDir, xStep, xHops := dirEast, 1, dx-sx
	if xHops < 0 {
		xDir, xStep, xHops = dirWest, -1, -xHops
	}
	yDir, yStep, yHops := dirSouth, n.cols, dy-sy
	if yHops < 0 {
		yDir, yStep, yHops = dirNorth, -n.cols, -yHops
	}
	t := n.walkLeg(now, flits, src, xDir, xStep, xHops)
	t = n.walkLeg(t, flits, src+xStep*xHops, yDir, yStep, yHops)
	// Tail-flit serialization at the destination.
	t += sim.Cycle(flits - 1)
	n.FlitHops.Add(int64(flits * (xHops + yHops)))
	return t + 1
}

// walkLeg reserves the direction-dir outgoing links of hops consecutive
// routers starting at r (step apart), for a head flit reaching r at
// cycle t, and returns the cycle it reaches the router after the last.
func (n *Network) walkLeg(t sim.Cycle, flits, r, dir, step, hops int) sim.Cycle {
	busy, base, latency := n.linkBusy[dir], n.linkBase, n.cfg.LinkLatency
	if n.metricsOn {
		for i, q := 0, r; i < hops; i, q = i+1, q+step {
			n.occ[dir][q] += int64(flits)
		}
	}
	for ; hops > 0; hops-- {
		depart := t
		if b := base + busy[r]; b > depart {
			depart = b
		}
		// The link is occupied while the message's flits stream
		// across it.
		busy[r] = depart + sim.Cycle(flits) - base
		t = depart + latency
		r += step
	}
	return t
}

// rebaseLinks starts a new link-reservation epoch at now: reservations
// already in the past clamp to zero (an expired reservation and a free
// link are indistinguishable to Send), live ones shift to the new base.
// Observable behavior is unchanged — only the stored representation is
// re-anchored.
func (n *Network) rebaseLinks(now sim.Cycle) {
	delta := now - n.linkBase
	for d := 0; d < 4; d++ {
		for r := range n.linkBusy[d] {
			if b := n.linkBusy[d][r]; b > delta {
				n.linkBusy[d][r] = b - delta
			} else {
				n.linkBusy[d][r] = 0
			}
		}
	}
	n.linkBase = now
}

// BindWaker implements sim.WakeSink: the engine hands the network the
// handle it files deliveries through at registration.
func (n *Network) BindWaker(w sim.Waker) { n.waker = w }

// schedule files m's delivery to ep at cycle at with the engine.
func (n *Network) schedule(at sim.Cycle, m *coherence.Msg, ep Endpoint, fid uint64) {
	var d *delivery
	if k := len(n.free) - 1; k >= 0 {
		d, n.free = n.free[k], n.free[:k]
	} else {
		d = &delivery{n: n}
		d.fire = d.deliver
	}
	d.msg, d.dst, d.fid = m, ep, fid
	n.inFlight++
	if n.metricsOn && n.inFlight > n.inFlightMax {
		n.inFlightMax = n.inFlight
	}
	n.waker.DoneAt(at, d.fire)
}

// deliver hands the record's message to its endpoint on the cycle the
// engine fires it, and returns the record to the free list.
func (d *delivery) deliver() {
	n, m, dst := d.n, d.msg, d.dst
	now, _ := n.waker.Now()
	if d.fid != 0 {
		// Flow arrival must be emitted before Deliver: the endpoint may
		// consume and recycle the message.
		n.tl.FlowEnd(d.fid, obs.PidMesh, n.nodes[m.Dst].router, m.Type.String(), int64(now))
	}
	d.msg, d.dst = nil, nil
	n.free = append(n.free, d)
	n.inFlight--
	dst.Deliver(now, m)
}

// Tick implements sim.Ticker. Deliveries fire as completion events, so
// the network has nothing to do on its own.
func (n *Network) Tick(sim.Cycle) {}

// MsgPool implements coherence.Network: the message free list every
// controller draws from.
func (n *Network) MsgPool() *coherence.MsgPool { return &n.Pool }

// MsgPoolFor returns MsgPool for any tile.
//
// Deprecated: nothing in the simulator calls it. It remains only because
// the repository benchmark's traced wiring (bench/traced.go) forwards
// it; remove both together.
func (n *Network) MsgPoolFor(int) *coherence.MsgPool { return &n.Pool }

// PoolTotals reports pooled-message accounting: total Gets and
// currently live (Gets - Puts).
func (n *Network) PoolTotals() (gets, live int64) { return n.Pool.Gets, n.Pool.Live() }

// Totals reports the traffic counters.
func (n *Network) Totals() (msgs, flits, hops, ctrl, data int64) {
	return n.MsgsSent.Value(), n.FlitsSent.Value(), n.FlitHops.Value(),
		n.FlitsByClass[0].Value(), n.FlitsByClass[1].Value()
}

// NextWake implements sim.WakeHinter: the network never needs a tick.
func (n *Network) NextWake(sim.Cycle) sim.Cycle { return sim.WakeNever }

// Pending reports the number of undelivered messages (used by
// completion checks and deadlock diagnostics).
func (n *Network) Pending() int { return n.inFlight }

// ComponentLabel implements sim.Labeled (forensic reports).
func (n *Network) ComponentLabel() string {
	return fmt.Sprintf("mesh %dx%d", n.rows, n.cols)
}

// Debug implements sim.Debugger: in-flight state for forensic reports
// (the engine's snapshot lists each delivery's due cycle after it).
func (n *Network) Debug() string {
	return fmt.Sprintf("mesh: %d pending deliveries", n.inFlight)
}
