package main

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// The traced machine is the untraced one (system.newBase + NewMachine /
// NewReplayMachine + finish, with shards, faults, checks and obs off)
// rebuilt from the layers' public constructors, with a timing shim at
// every boundary the interfaces expose. The shims only time and count:
// the simulated result must equal the untraced run's bit for bit, which
// TestTracedMatchesSystem pins at tiny scale and every benchmark run
// re-checks at full scale.

// component is what the engine sees of a registered component.
type component interface {
	sim.Ticker
	sim.WakeHinter
	sim.WakeSink
}

// tickShim times the engine -> component boundary. NextWake and
// BindWaker pass through untimed, so hint polls land in the engine's
// (sim) self time.
type tickShim struct {
	t     *tracer
	k     kind
	inner component
}

func (s *tickShim) Tick(now sim.Cycle) {
	s.t.begin(s.k)
	s.inner.Tick(now)
	s.t.end()
}
func (s *tickShim) NextWake(now sim.Cycle) sim.Cycle { return s.inner.NextWake(now) }
func (s *tickShim) BindWaker(w sim.Waker)            { s.inner.BindWaker(w) }

// frontShim is tickShim for a front end. It forwards Done as well:
// Engine.Register enrolls a cpu.Core / trace.ReplayCore as a Doner, and
// the traced engine should poll exactly what the untraced one polls.
type frontShim struct {
	tickShim
	front system.Frontend
}

func (s *frontShim) Done() bool { return s.front.Done() }

// deliverShim times the mesh -> controller boundary.
type deliverShim struct {
	t     *tracer
	k     kind
	inner coherence.Controller
}

func (s *deliverShim) Deliver(now sim.Cycle, m *coherence.Msg) {
	s.t.begin(s.k)
	s.inner.Deliver(now, m)
	s.t.end()
}

// portShim times the front end -> L1 boundary. Completion callbacks are
// passed through untouched (wrapping them would allocate per access), so
// the front end's callback body runs inside whichever l1 or mesh span
// completes the access.
type portShim struct {
	t     *tracer
	inner coherence.CorePort
}

func (s *portShim) done(ok bool) bool {
	s.t.end()
	if !ok {
		s.t.portRejects++
	}
	return ok
}

func (s *portShim) Load(now sim.Cycle, addr uint64, cb func(val uint64)) bool {
	s.t.begin(kL1Port)
	return s.done(s.inner.Load(now, addr, cb))
}

func (s *portShim) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	s.t.begin(kL1Port)
	return s.done(s.inner.Store(now, addr, val, cb))
}

func (s *portShim) RMW(now sim.Cycle, addr uint64, f func(old uint64) (uint64, bool), cb func(old uint64)) bool {
	s.t.begin(kL1Port)
	return s.done(s.inner.RMW(now, addr, f, cb))
}

func (s *portShim) Fence(now sim.Cycle, cb func()) bool {
	s.t.begin(kL1Port)
	return s.done(s.inner.Fence(now, cb))
}

// netShim times the controller -> mesh boundary.
type netShim struct {
	t     *tracer
	inner *mesh.Network
	cores int
}

func (s *netShim) Send(now sim.Cycle, m *coherence.Msg) {
	if !coherence.IsL1(m.Src, s.cores) {
		s.t.l2Sends++
	}
	s.t.begin(kMeshSend)
	s.inner.Send(now, m)
	s.t.end()
}
func (s *netShim) MsgPool() *coherence.MsgPool            { return s.inner.MsgPool() }
func (s *netShim) MsgPoolFor(tile int) *coherence.MsgPool { return s.inner.MsgPoolFor(tile) }

// memShim times the controller -> backing store boundary.
type memShim struct {
	t     *tracer
	inner *memsys.Memory
}

func (s *memShim) Latency(addr uint64) sim.Cycle {
	s.t.begin(kMem)
	l := s.inner.Latency(addr)
	s.t.end()
	return l
}

func (s *memShim) ReadBlock(addr uint64, dst []byte) {
	s.t.begin(kMem)
	s.inner.ReadBlock(addr, dst)
	s.t.end()
}

func (s *memShim) WriteBlock(addr uint64, src []byte) {
	s.t.begin(kMem)
	s.inner.WriteBlock(addr, src)
	s.t.end()
}

// quiesce is system.quiesceDoner: done when every front end has retired
// its stream and the memory system is idle, probing the component that
// was busy last time first. It is polled once per engine iteration, so
// its cost is part of the sim layer's self time in both runs.
type quiesce struct {
	fronts []system.Frontend
	l1s    []coherence.L1Like
	l2s    []coherence.Controller
	net    *mesh.Network

	lastFront, lastL1, lastL2 int
}

func (q *quiesce) Done() bool {
	if !q.fronts[q.lastFront].Done() {
		return false
	}
	if q.l1s[q.lastL1].Busy() || q.l2s[q.lastL2].Busy() {
		return false
	}
	for i, c := range q.fronts {
		if !c.Done() {
			q.lastFront = i
			return false
		}
	}
	if q.net.Pending() > 0 {
		return false
	}
	for i, l := range q.l1s {
		if l.Busy() {
			q.lastL1 = i
			return false
		}
	}
	for i, l := range q.l2s {
		if l.Busy() {
			q.lastL2 = i
			return false
		}
	}
	return true
}

// buildTraced wires the traced machine. The returned system.Machine
// carries the raw components in its exported fields, so Prewarm, Reader,
// Execute and this package's result collection treat it exactly like a
// machine built by the system package.
func (s spec) buildTraced(in input, t *tracer) (*system.Machine, error) {
	cfg := s.cfg()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores
	net := mesh.New(mesh.Config{Routers: n, Rows: cfg.MeshRows})
	engine := sim.NewEngine(cfg.MaxCycles)
	mem := memsys.NewMemory()
	mem.Base, mem.Spread = cfg.MemBase, cfg.MemSpread
	if in.tr != nil {
		if err := in.tr.Validate(); err != nil {
			return nil, err
		}
		if last := in.tr.Streams[len(in.tr.Streams)-1].Core; last >= n {
			return nil, fmt.Errorf("%s: trace needs core %d, have %d", s.name, last, n)
		}
		for _, w := range in.tr.InitMem {
			mem.WriteWord(w.Addr, w.Val)
		}
	} else {
		if err := in.w.Validate(); err != nil {
			return nil, err
		}
		if len(in.w.Programs) > n {
			return nil, fmt.Errorf("%s: workload needs %d cores, have %d", s.name, len(in.w.Programs), n)
		}
		for addr, val := range in.w.InitMem {
			mem.WriteWord(addr, val)
		}
	}

	l1s, l2s := s.proto().Build(cfg, &netShim{t: t, inner: net, cores: n}, &memShim{t: t, inner: mem})
	for i := 0; i < n; i++ {
		net.Attach(coherence.L1ID(i), i, &deliverShim{t: t, k: kL1Deliver, inner: l1s[i]})
		net.Attach(coherence.L2ID(i, n), i, &deliverShim{t: t, k: kL2Deliver, inner: l2s[i]})
	}
	m := &system.Machine{Cfg: cfg, Engine: engine, Net: net, Mem: mem, L1s: l1s, L2s: l2s}

	frontKind := kCPUTick
	if in.tr != nil {
		frontKind = kReplayTick
		for _, st := range in.tr.Streams {
			port := &portShim{t: t, inner: l1s[st.Core]}
			m.Fronts = append(m.Fronts, trace.NewReplayCore(st.Core, st.Ops, port, cfg.WriteBuffer))
		}
	} else {
		for i, p := range in.w.Programs {
			if p == nil {
				continue
			}
			core := cpu.New(i, p, &portShim{t: t, inner: l1s[i]}, cfg.WriteBuffer)
			core.SetBatched(cfg.BatchedCore)
			core.SetReg(0, int64(i)) // convention: r0 = thread id
			m.Cores = append(m.Cores, core)
			m.Fronts = append(m.Fronts, core)
		}
	}

	// Registration order is the intra-cycle order: network, L2 tiles,
	// L1s, front ends (system.Machine.finish).
	engine.Register(&tickShim{t: t, k: kMeshTick, inner: net})
	for _, l2 := range l2s {
		engine.Register(&tickShim{t: t, k: kL2Tick, inner: l2})
	}
	for _, l1 := range l1s {
		engine.Register(&tickShim{t: t, k: kL1Tick, inner: l1})
	}
	for _, f := range m.Fronts {
		engine.Register(&frontShim{tickShim: tickShim{t: t, k: frontKind, inner: f}, front: f})
	}
	engine.RegisterDoner(&quiesce{fronts: m.Fronts, l1s: l1s, l2s: l2s, net: net})
	return m, nil
}
