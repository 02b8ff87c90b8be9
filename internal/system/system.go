// Package system wires a complete simulated CMP: cores, a coherence
// protocol's L1/L2 controllers, the mesh interconnect and memory — and
// runs a workload on it to completion, collecting the statistics the
// paper's figures are built from.
package system

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Protocol is the coherence-protocol factory interface, defined in the
// coherence package next to the registry that names every implementation.
// Protocols are resolved by name (coherence.ProtocolByName) or passed as
// values; this package never enumerates the known set.
type Protocol = coherence.Protocol

// Frontend is the engine-facing contract of a workload driver — the
// component that owns one core slot and issues memory operations into
// its L1. cpu.Core (program execution) and trace.ReplayCore
// (trace-driven replay) both implement it, which is what lets
// NewReplayMachine swap the instruction-executing front end for a
// recorded stream while every layer below stays untouched.
type Frontend interface {
	sim.Ticker
	sim.WakeSink
	// Done reports whether the frontend has retired its full stream and
	// drained its write buffer.
	Done() bool
	// Counts reports the core-level counters aggregated into Result.
	Counts() (loads, stores, rmws, fences, instrs int64)
	// ObsCounters lists the frontend's named retirement counters for
	// metrics-registry registration.
	ObsCounters() []*stats.Counter
	// SetStalls attaches the stall-attribution histograms (nil, the
	// default, keeps every stall path branch-only).
	SetStalls(s *obs.CoreStalls)
	// Name is the prefix of the frontend's counters and stall
	// histograms: "core3" for a program core, "replay3" for a replay.
	Name() string
}

// Result captures one run's outcome.
type Result struct {
	Protocol string
	Workload string

	Cycles sim.Cycle

	// Aggregated L1 statistics across all cores.
	L1 coherence.L1Stats

	// Network traffic.
	Msgs      int64
	Flits     int64 // flits injected (message sizes)
	FlitHops  int64 // flits x links traversed (reported as "traffic")
	DataFlits int64
	CtrlFlits int64

	// Core-level counts.
	Loads, Stores, RMWs, Fences, Instructions int64

	// L2 tile events (TSO-CC only; zero for MESI).
	SROTransitions int64 // lines that entered SharedRO
	DecayEvents    int64 // Shared->SharedRO decays
	SROInvBcasts   int64 // writes to SharedRO lines (broadcast rounds)
	L2TSResets     int64 // tile timestamp-source wraps

	// Message-pool accounting. PoolLive must be zero after a clean run:
	// the TxTable/controller ownership discipline returns every pooled
	// message once the system quiesces, so a non-zero value is a leak.
	PoolGets int64
	PoolLive int64

	// TxLive counts directory transactions registered but never retired
	// across all tiles; like PoolLive it must be zero after a clean run.
	TxLive int64

	Mem *memsys.Memory // final memory state (for workload checks)

	CheckErr error // workload functional check outcome
}

// quiesceDoner declares the system done once the memory system has gone
// idle. The frontends are Doners themselves (Engine.Register enrolls
// them, before this one), so by the time it is polled every frontend has
// already reported done. The check runs every engine iteration after
// that, so it probes the controller that was busy last time first.
type quiesceDoner struct {
	l1s []coherence.L1Like
	l2s []coherence.Controller
	net *mesh.Network

	lastBusyL1 int
	lastBusyL2 int
}

func (q *quiesceDoner) Done() bool {
	if q.l1s[q.lastBusyL1].Busy() || q.l2s[q.lastBusyL2].Busy() {
		return false
	}
	if q.net.Pending() > 0 {
		return false
	}
	for i, l := range q.l1s {
		if l.Busy() {
			q.lastBusyL1 = i
			return false
		}
	}
	for i, l := range q.l2s {
		if l.Busy() {
			q.lastBusyL2 = i
			return false
		}
	}
	return true
}

// Machine is a fully wired system ready to run one workload.
type Machine struct {
	Cfg    config.System
	Engine *sim.Engine
	Net    *mesh.Network
	Mem    *memsys.Memory
	Cores  []*cpu.Core // program-mode cores (empty for replay machines)
	Fronts []Frontend  // every workload driver, program or replay
	L1s    []coherence.L1Like
	L2s    []coherence.Controller
	proto  Protocol

	// inj is the fault injector (nil unless cfg.FaultProfile is set);
	// checks the invariant-oracle tracker (nil unless cfg.Checks).
	inj    *faults.Injector
	checks *check.Tracker

	workload string // result label (workload or trace name)
}

// Checks exposes the oracle tracker (nil when cfg.Checks is off), so
// tests can inspect recorded violations directly.
func (m *Machine) Checks() *check.Tracker { return m.checks }

// dir is the one Controller → Directory view: Machine.L2s is typed
// []coherence.Controller (Protocol.Build's signature), and every
// directory tile is a coherence.Directory by embedding DirBase.
func (m *Machine) dir(tile int) coherence.Directory {
	return m.L2s[tile].(coherence.Directory)
}

// Prewarm does nothing: cache storage follows the sets and lines a run
// installs into (memsys.Cache), so there is nothing to pre-fault.
//
// Deprecated: it stays only because the benchmark harness calls it.
func (m *Machine) Prewarm() {}

// newBase wires everything below the frontends: engine, mesh, memory
// (with the initial image loaded) and the protocol's L1/L2 controllers.
func newBase(cfg config.System, proto Protocol, initMem map[uint64]uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.MaxCycles)
	engine.SetPerCycle(cfg.PerCycleEngine)
	net := mesh.New(mesh.Config{Routers: cfg.Cores, Rows: cfg.MeshRows})
	m := &Machine{Cfg: cfg, Engine: engine, Net: net, proto: proto}
	mem := memsys.NewMemory()
	mem.Base = cfg.MemBase
	mem.Spread = cfg.MemSpread
	for addr, val := range initMem {
		mem.WriteWord(addr, val)
	}
	m.Mem = mem
	l1s, l2s := proto.Build(cfg, net, mem)
	for i := 0; i < cfg.Cores; i++ {
		net.Attach(coherence.L1ID(i), i, l1s[i])
		net.Attach(coherence.L2ID(i, cfg.Cores), i, l2s[i])
	}
	m.L1s, m.L2s = l1s, l2s
	if cfg.FaultProfile != "" {
		inj, err := faults.New(cfg.FaultProfile, cfg.FaultSeed)
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
		m.inj = inj
		if inj.MeshActive() {
			net.SetDelayHook(inj.MeshDelay)
		}
		if inj.TxActive() {
			for tile := range l2s {
				m.dir(tile).Tx().SetStall(inj.TxStall(tile))
			}
		}
		if inj.EvictActive() {
			for core, l1 := range l1s {
				l1.Hooks().EvictFault = inj.EvictHook(core)
			}
		}
		if inj.ResetActive() {
			// Timestamp-reset storms hit every bounded-timestamp domain:
			// L1 epochs and L2 timestamp sources. Controllers without
			// timestamps never consult the hook.
			for i := range l1s {
				l1s[i].Hooks().ResetFault = inj.ResetHook(coherence.L1ID(i))
				l2s[i].Hooks().ResetFault = inj.ResetHook(coherence.L2ID(i, cfg.Cores))
			}
		}
		if inj.VictimActive() {
			for tile, l2 := range l2s {
				l2.Hooks().AckDelay = inj.AckDelay(tile)
			}
		}
		inj.SetWindow(cfg.FaultFrom, cfg.FaultUntil)
	}
	if cfg.Checks {
		ctrls := make([]coherence.Controller, len(l1s))
		for i, l := range l1s {
			ctrls[i] = l
		}
		m.checks = check.New(ctrls, engine.Now)
		if leg := coherence.LegalityByName(proto.Name()); leg != nil {
			for i := range l1s {
				l1s[i].Hooks().Transition = m.checks.LegalitySink(i, "L1", &leg.L1)
				l2s[i].Hooks().Transition = m.checks.LegalitySink(i, "L2", &leg.L2)
			}
		}
		for tile := range l2s {
			m.dir(tile).Tx().ArmAudit(txAuditAge, m.checks.TxLifeSink(tile))
		}
	}
	return m, nil
}

// txAuditAge is the outstanding-transaction age (cycles) at which the
// continuous TxTable lifecycle audit reports a "txlife" violation. A
// directory transaction normally completes within a message round trip
// (tens of cycles); injected delays and stalls stretch that by at most
// a few hundred. Anything outstanding this long is stuck, not slow.
const txAuditAge = 8192

// portFor builds the core-port decorator chain for one core slot:
// core → oracle checks (outermost, so they observe exactly what the
// core sees) → fault injection → L1. With faults and checks disabled
// the raw L1 is returned and the hot path is untouched.
func (m *Machine) portFor(core int) coherence.CorePort {
	var p coherence.CorePort = m.L1s[core]
	if m.inj != nil && m.inj.PortActive() {
		p = m.inj.WrapPort(core, p)
	}
	if m.checks != nil {
		p = m.checks.WrapPort(core, p)
	}
	return p
}

// CorePort returns the port chain a core in slot `core` is wired with:
// the raw L1 when faults and checks are disabled, decorated otherwise.
// Benchmark/test access — the zero-alloc gate drives the L1 hit path
// through this to prove disabled decorators cost nothing.
func (m *Machine) CorePort(core int) coherence.CorePort { return m.portFor(core) }

// finish registers every component in the deterministic intra-cycle
// order: the network, then L2 tiles, then L1s (timers + message
// handling), then frontends. Controllers are registered directly:
// coherence.Controller is a superset of sim.Ticker and sim.WakeSink
// (Register binds each component's Waker); the network is registered
// only for its Waker, through which it files every delivery as a
// completion event, and is never due after the first cycle. This order
// is also what makes same-cycle wake-set dispatch exact: within a
// cycle, stimulation only flows forward (mesh deliveries, which fire
// before any component ticks, into controllers; controller callbacks
// into frontends), so a woken component's turn is always still ahead.
func (m *Machine) finish() {
	m.Engine.Register(m.Net)
	for _, t := range m.L2s {
		m.Engine.Register(t)
	}
	for _, l := range m.L1s {
		m.Engine.Register(l)
	}
	for _, c := range m.Fronts {
		m.Engine.Register(c)
	}
	m.Engine.RegisterDoner(&quiesceDoner{l1s: m.L1s, l2s: m.L2s, net: m.Net})
	m.installObs()
}

// NewMachine builds a machine for cfg running proto with the workload's
// programs loaded (w may have fewer programs than cores; extras idle).
// When cfg.TraceOut is set, every core streams its retired memory
// operations into the sink.
func NewMachine(cfg config.System, proto Protocol, w *program.Workload) (*Machine, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(w.Programs) > cfg.Cores {
		return nil, fmt.Errorf("system: workload %q needs %d cores, have %d",
			w.Name, len(w.Programs), cfg.Cores)
	}
	m, err := newBase(cfg, proto, w.InitMem)
	if err != nil {
		return nil, err
	}
	m.workload = w.Name
	for i := 0; i < cfg.Cores; i++ {
		var p *program.Program
		if i < len(w.Programs) {
			p = w.Programs[i]
		}
		if p == nil {
			continue
		}
		core := cpu.New(i, p, m.portFor(i), cfg.WriteBuffer)
		core.SetBatched(cfg.BatchedCore)
		core.SetReg(0, int64(i)) // convention: r0 = thread id
		if cfg.TraceOut != nil {
			core.SetTrace(cfg.TraceOut)
		}
		m.Cores = append(m.Cores, core)
		m.Fronts = append(m.Fronts, core)
	}
	m.finish()
	return m, nil
}

// NewReplayMachine builds a machine whose frontends replay tr's
// recorded per-core operation streams instead of executing programs.
// Any registered protocol can consume any trace; replaying on the
// recording protocol and geometry reproduces the original run's Result
// bit for bit (the TestTraceReplayBitIdentical gate). The trace's
// initial memory image seeds main memory so value-dependent operations
// (CAS) take their recorded outcomes.
func NewReplayMachine(cfg config.System, proto Protocol, tr *trace.Trace) (*Machine, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Streams) == 0 {
		return nil, fmt.Errorf("system: trace %q has no streams", tr.Meta.Workload)
	}
	if last := tr.Streams[len(tr.Streams)-1].Core; last >= cfg.Cores {
		return nil, fmt.Errorf("system: trace %q needs core %d, have %d",
			tr.Meta.Workload, last, cfg.Cores)
	}
	initMem := make(map[uint64]uint64, len(tr.InitMem))
	for _, w := range tr.InitMem {
		initMem[w.Addr] = w.Val
	}
	m, err := newBase(cfg, proto, initMem)
	if err != nil {
		return nil, err
	}
	m.workload = tr.Meta.Workload
	for _, s := range tr.Streams {
		m.Fronts = append(m.Fronts,
			trace.NewReplayCore(s.Core, s.Ops, m.portFor(s.Core), cfg.WriteBuffer))
	}
	m.finish()
	return m, nil
}

// forensics assembles the structured dump for a failed run: the engine
// component snapshot plus mesh/pool state and any oracle findings.
func (m *Machine) forensics(reason string, panicValue any, stack []byte) *check.Report {
	gets, live := m.Net.PoolTotals()
	txd := make([]string, len(m.L2s))
	for tile := range m.L2s {
		d := m.dir(tile)
		txd[tile] = d.ComponentLabel() + ":" + d.Tx().Debug()
	}
	return &check.Report{
		Reason:      reason,
		Cycle:       m.Engine.Now(),
		Components:  m.Engine.Snapshot(),
		MeshPending: m.Net.Pending(),
		PoolGets:    gets,
		PoolLive:    live,
		PanicValue:  panicValue,
		Stack:       string(stack),
		Oracle:      m.oracleErr(),
		TxTables:    txd,
	}
}

// txLive sums live (registered, never retired) directory transactions
// across all tiles; zero after any clean run.
func (m *Machine) txLive() int64 {
	var n int64
	for tile := range m.L2s {
		n += m.dir(tile).Tx().LiveTx()
	}
	return n
}

func (m *Machine) oracleErr() error {
	if m.checks == nil {
		return nil
	}
	return m.checks.Err()
}

// runEngine is the harness boundary around Engine.Run: component panics
// (L1/mesh internals) are recovered into the forensic-report format,
// deadlock/cycle-limit errors are annotated with the same dump, and
// oracle violations from an otherwise clean run surface as the error.
func (m *Machine) runEngine() (cycles sim.Cycle, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep := m.forensics("panic", r, debug.Stack())
			err = fmt.Errorf("component panic: %v\n%s", r, rep)
		}
	}()
	cycles, err = m.Engine.Run()
	if err != nil {
		reason := "cycle limit"
		var dl *sim.DeadlockError
		if errors.As(err, &dl) && dl.Stalled {
			reason = "deadlock"
		}
		return cycles, fmt.Errorf("%w\n%s", err, m.forensics(reason, nil, nil))
	}
	if oerr := m.oracleErr(); oerr != nil {
		return cycles, oerr
	}
	if m.checks != nil {
		// Leak oracles: a clean, quiesced run must have returned every
		// pooled message and retired every directory transaction.
		if _, live := m.Net.PoolTotals(); live != 0 {
			return cycles, fmt.Errorf("check: %d pooled message(s) leaked after clean run\n%s",
				live, m.forensics("leak", nil, nil))
		}
		if tl := m.txLive(); tl != 0 {
			return cycles, fmt.Errorf("check: %d directory transaction(s) leaked after clean run\n%s",
				tl, m.forensics("leak", nil, nil))
		}
	}
	return cycles, nil
}

// Execute runs the wired machine's engine through the same harness
// boundary Run uses (forensics on failure, oracle and leak checks on
// completion) and returns the cycle count. It exists for harnesses —
// the violation shrinker — that build a Machine themselves and then
// need to inspect its oracle tracker or fault injector afterwards.
func (m *Machine) Execute() (sim.Cycle, error) { return m.runEngine() }

// Injector exposes the fault injector (nil when cfg.FaultProfile is
// empty), so harnesses can read its decision-counter high-water mark.
func (m *Machine) Injector() *faults.Injector { return m.inj }

// Run executes a workload on proto under cfg and returns the collected
// result. The workload's Check (if any) is evaluated on final memory;
// its outcome lands in Result.CheckErr, not the returned error, so
// harnesses can distinguish simulator failures from functional failures.
func Run(cfg config.System, proto Protocol, w *program.Workload) (*Result, error) {
	m, err := NewMachine(cfg, proto, w)
	if err != nil {
		return nil, err
	}
	cycles, err := m.runEngine()
	if err != nil {
		return nil, fmt.Errorf("system: %s on %s: %w", proto.Name(), w.Name, err)
	}
	r := m.collect(cycles)
	if w.Check != nil {
		r.CheckErr = w.Check(m.Reader())
	}
	return r, nil
}

// RunRecorded is Run with memory-trace capture: it wires a trace
// recorder into every core, executes the workload, and returns both the
// (unperturbed) result and the captured trace. The trace embeds cfg's
// geometry, the protocol name and the workload's initial memory image,
// so it is self-contained for later replay.
func RunRecorded(cfg config.System, proto Protocol, w *program.Workload, seed uint64) (*Result, *trace.Trace, error) {
	rec := trace.NewRecorder(cfg, proto.Name(), w.Name, seed)
	cfg.TraceOut = rec
	res, err := Run(cfg, proto, w)
	if err != nil {
		return nil, nil, err
	}
	rec.SetInitMem(w.InitMem)
	tr, err := rec.Trace()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// Replay executes a trace on proto under cfg and returns the collected
// result (Workload carries the recorded name; there is no functional
// check to evaluate).
func Replay(cfg config.System, proto Protocol, tr *trace.Trace) (*Result, error) {
	m, err := NewReplayMachine(cfg, proto, tr)
	if err != nil {
		return nil, err
	}
	cycles, err := m.runEngine()
	if err != nil {
		return nil, fmt.Errorf("system: %s replaying %s: %w", proto.Name(), tr.Meta.Workload, err)
	}
	return m.collect(cycles), nil
}

func (m *Machine) collect(cycles sim.Cycle) *Result {
	msgs, flits, hops, ctrl, data := m.Net.Totals()
	gets, live := m.Net.PoolTotals()
	r := &Result{
		Protocol:  m.proto.Name(),
		Workload:  m.workload,
		Cycles:    cycles,
		Msgs:      msgs,
		Flits:     flits,
		FlitHops:  hops,
		CtrlFlits: ctrl,
		DataFlits: data,
		PoolGets:  gets,
		PoolLive:  live,
		TxLive:    m.txLive(),
		Mem:       m.Mem,
	}
	for _, l := range m.L1s {
		r.L1.Merge(l.L1Stats())
	}
	for _, l2 := range m.L2s {
		if ts, ok := l2.(interface {
			TileStats() (int64, int64, int64, int64)
		}); ok {
			sro, decay, bc, rs := ts.TileStats()
			r.SROTransitions += sro
			r.DecayEvents += decay
			r.SROInvBcasts += bc
			r.L2TSResets += rs
		}
	}
	for _, c := range m.Fronts {
		loads, stores, rmws, fences, instrs := c.Counts()
		r.Loads += loads
		r.Stores += stores
		r.RMWs += rmws
		r.Fences += fences
		r.Instructions += instrs
	}
	return r
}

// Reader returns a MemReader observing the freshest value of every word:
// exclusive L1 copies first, then the home L2 tile, then memory.
func (m *Machine) Reader() program.MemReader {
	return hierReader{m}
}

type hierReader struct{ m *Machine }

func (r hierReader) ReadWord(addr uint64) uint64 {
	// Resolve the home tile once; on a quiesced machine its directory
	// state is exact (exclusive L2 lines are inclusive of their L1 copy),
	// so only the recorded owner can hold the block dirty — the reader
	// consults that single cache instead of scanning every L1 per word.
	home := r.m.dir(coherence.HomeTile(addr, r.m.Cfg.Cores))
	if owner, held := home.SnoopOwner(addr); held {
		if blk, ok := r.m.L1s[int(owner)].SnoopBlock(addr); ok {
			return memsys.GetWord(blk, addr)
		}
	}
	if blk, ok := home.SnoopBlock(addr); ok {
		return memsys.GetWord(blk, addr)
	}
	return r.m.Mem.ReadWord(addr)
}

// Summary renders a one-run overview for the CLI tools.
func (r *Result) Summary() string {
	t := stats.NewTable(fmt.Sprintf("%s / %s", r.Workload, r.Protocol), "value")
	t.AddRow("cycles", fmt.Sprintf("%d", r.Cycles))
	t.AddRow("instructions", fmt.Sprintf("%d", r.Instructions))
	t.AddRow("loads", fmt.Sprintf("%d", r.Loads))
	t.AddRow("stores", fmt.Sprintf("%d", r.Stores))
	t.AddRow("rmws", fmt.Sprintf("%d", r.RMWs))
	t.AddRow("L1 accesses", fmt.Sprintf("%d", r.L1.Accesses()))
	t.AddRow("L1 misses", fmt.Sprintf("%d", r.L1.Misses()))
	t.AddRow("self-invalidations", fmt.Sprintf("%d", r.L1.SelfInvTotal()))
	t.AddRow("network msgs", fmt.Sprintf("%d", r.Msgs))
	t.AddRow("network flits", fmt.Sprintf("%d", r.Flits))
	t.AddRow("flit-hops", fmt.Sprintf("%d", r.FlitHops))
	t.AddRow("mean RMW latency", fmt.Sprintf("%.1f", r.L1.MeanRMWLatency()))
	return t.String()
}
