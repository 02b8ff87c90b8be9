package check

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/sim"
)

// memPort is a trivially correct synchronous CorePort over a flat word
// map: every op completes inside the call.
type memPort struct {
	mem map[uint64]uint64
}

func (m *memPort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	cb(m.mem[addr])
	return true
}
func (m *memPort) Store(now sim.Cycle, addr, val uint64, cb func()) bool {
	m.mem[addr] = val
	cb()
	return true
}
func (m *memPort) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	old := m.mem[addr]
	if nv, ok := f(old); ok {
		m.mem[addr] = nv
	}
	cb(old)
	return true
}
func (m *memPort) Fence(now sim.Cycle, cb func()) bool {
	cb()
	return true
}

// lyingPort returns a constant bogus value for every load.
type lyingPort struct{ memPort }

func (l *lyingPort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	cb(0xBAD)
	return true
}

// fakeL1 is a Controller stub whose SnoopBlock authority is test-set.
type fakeL1 struct {
	coherence.Probe
	owns map[uint64]bool
}

func (f *fakeL1) Deliver(now sim.Cycle, m *coherence.Msg) {}
func (f *fakeL1) Tick(now sim.Cycle)                      {}
func (f *fakeL1) NextWake(now sim.Cycle) sim.Cycle        { return sim.WakeNever }
func (f *fakeL1) BindWaker(w sim.Waker)                   {}
func (f *fakeL1) Busy() bool                              { return false }
func (f *fakeL1) SnoopBlock(addr uint64) ([]byte, bool)   { return nil, f.owns[addr] }

type clock struct{ c sim.Cycle }

func (c *clock) now() sim.Cycle { return c.c }

func newTracker(l1s ...coherence.Controller) (*Tracker, *clock) {
	ck := &clock{}
	return New(l1s, ck.now), ck
}

func TestCleanRunNoViolations(t *testing.T) {
	tr, ck := newTracker(&fakeL1{})
	p := tr.WrapPort(0, &memPort{mem: map[uint64]uint64{}})
	for i := 0; i < 10; i++ {
		ck.c++
		if !p.Store(ck.c, 8, uint64(i), func() {}) {
			t.Fatal("store declined")
		}
		ck.c++
		var got uint64
		p.Load(ck.c, 8, func(v uint64) { got = v })
		if got != uint64(i) {
			t.Fatalf("load = %d, want %d", got, i)
		}
	}
	ck.c++
	p.RMW(ck.c, 8, func(old uint64) (uint64, bool) { return old + 1, true }, func(uint64) {})
	p.Fence(ck.c, func() {})
	if err := tr.Err(); err != nil {
		t.Fatalf("clean run tripped oracles: %v", err)
	}
}

func TestValueViolation(t *testing.T) {
	tr, ck := newTracker(&fakeL1{})
	lp := &lyingPort{memPort{mem: map[uint64]uint64{}}}
	p := tr.WrapPort(1, lp)
	// Establish the address (initial value learned from the underlying
	// correct store path), then read the lie.
	ck.c = 1
	p.Store(ck.c, 16, 7, func() {})
	ck.c = 2
	p.Load(ck.c, 16, func(uint64) {})
	vs, n := tr.Violations()
	if n == 0 {
		t.Fatal("invented value not caught")
	}
	if vs[0].Kind != "value" || vs[0].Core != 1 {
		t.Fatalf("violation = %+v, want kind=value core=1", vs[0])
	}
	if !strings.Contains(tr.Err().Error(), "0xbad") {
		t.Fatalf("error should carry the bogus value: %v", tr.Err())
	}
}

func TestSWMRViolation(t *testing.T) {
	a := &fakeL1{owns: map[uint64]bool{}}
	b := &fakeL1{owns: map[uint64]bool{}}
	tr, ck := newTracker(a, b)
	p := tr.WrapPort(0, &memPort{mem: map[uint64]uint64{}})
	block := config.BlockAddr(64)
	a.owns[block] = true
	b.owns[block] = true
	ck.c = 5
	p.Store(ck.c, 64, 1, func() {})
	vs, n := tr.Violations()
	if n != 1 || vs[0].Kind != "swmr" {
		t.Fatalf("violations = %v (n=%d), want one swmr", vs, n)
	}
	if !strings.Contains(vs[0].Msg, "2 L1s") {
		t.Fatalf("message should count holders: %q", vs[0].Msg)
	}
}

// stallPort defers completion callbacks so ordering violations can be
// provoked from the outside.
type stallPort struct {
	loadCb func(uint64)
}

func (s *stallPort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	s.loadCb = cb
	return true
}
func (s *stallPort) Store(now sim.Cycle, addr, val uint64, cb func()) bool { return true }
func (s *stallPort) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	return true
}
func (s *stallPort) Fence(now sim.Cycle, cb func()) bool { return true }

func TestOrderViolationOverlappingLoads(t *testing.T) {
	tr, ck := newTracker(&fakeL1{})
	sp := &stallPort{}
	p := tr.WrapPort(0, sp)
	ck.c = 1
	p.Load(ck.c, 8, func(uint64) {})
	// A second blocking op admitted before the first completes is a TSO
	// front-end bug.
	p.Load(ck.c, 16, func(uint64) {})
	vs, n := tr.Violations()
	if n != 1 || vs[0].Kind != "order" {
		t.Fatalf("violations = %v (n=%d), want one order", vs, n)
	}
	// Completion clears the blocked state for later ops.
	sp.loadCb(0)
}

func TestDeclineRollsBackOracleState(t *testing.T) {
	tr, ck := newTracker(&fakeL1{})
	decline := &decliningPort{}
	p := tr.WrapPort(0, decline)
	ck.c = 1
	if p.Load(ck.c, 8, func(uint64) {}) {
		t.Fatal("decliningPort accepted")
	}
	if p.Store(ck.c, 8, 1, func() {}) {
		t.Fatal("decliningPort accepted")
	}
	// After declines, a correct port must be admissible with no
	// violations and no leaked pending values.
	mp := tr.WrapPort(1, &memPort{mem: map[uint64]uint64{}})
	mp.Store(ck.c, 8, 2, func() {})
	mp.Load(ck.c, 8, func(uint64) {})
	if err := tr.Err(); err != nil {
		t.Fatalf("decline left stale oracle state: %v", err)
	}
	if st := tr.state(8); len(st.pending) != 0 {
		t.Fatalf("pending not rolled back: %v", st.pending)
	}
}

type decliningPort struct{}

func (d *decliningPort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool { return false }
func (d *decliningPort) Store(now sim.Cycle, addr, val uint64, cb func()) bool { return false }
func (d *decliningPort) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	return false
}
func (d *decliningPort) Fence(now sim.Cycle, cb func()) bool { return false }

// stalePort serves the initial value forever, ignoring stores.
type stalePort struct{}

func (s *stalePort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	cb(0)
	return true
}
func (s *stalePort) Store(now sim.Cycle, addr, val uint64, cb func()) bool {
	cb()
	return true
}
func (s *stalePort) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	f(0)
	cb(0)
	return true
}
func (s *stalePort) Fence(now sim.Cycle, cb func()) bool {
	cb()
	return true
}

func TestStaleReadBeyondSkewWindow(t *testing.T) {
	tr, ck := newTracker(&fakeL1{})
	p := tr.WrapPort(0, &stalePort{})
	// Learn the initial value 0, then commit a write the core itself
	// observes (the writer's floor advances at commit).
	ck.c = 1
	p.Load(ck.c, 8, func(uint64) {})
	ck.c = 2
	p.Store(ck.c, 8, 42, func() {})
	// Within the skew window the stale initial value is tolerated...
	ck.c = 3
	p.Load(ck.c, 8, func(uint64) {})
	if err := tr.Err(); err != nil {
		t.Fatalf("skew tolerance failed: %v", err)
	}
	// ...but far beyond it the regression is a real staleness bug.
	ck.c = 2 + skewWindow + 10
	p.Load(ck.c, 8, func(uint64) {})
	vs, n := tr.Violations()
	if n != 1 || vs[0].Kind != "stale" {
		t.Fatalf("violations = %v (n=%d), want one stale", vs, n)
	}
}

func TestViolationCap(t *testing.T) {
	tr, ck := newTracker(&fakeL1{})
	lp := &lyingPort{memPort{mem: map[uint64]uint64{}}}
	p := tr.WrapPort(0, lp)
	ck.c = 1
	p.Store(ck.c, 8, 1, func() {})
	for i := 0; i < maxViolations+10; i++ {
		ck.c++
		p.Load(ck.c, 8, func(uint64) {})
	}
	vs, n := tr.Violations()
	if len(vs) != maxViolations {
		t.Fatalf("recorded %d, want cap %d", len(vs), maxViolations)
	}
	if n != maxViolations+10 {
		t.Fatalf("count = %d, want %d", n, maxViolations+10)
	}
	if !strings.Contains(tr.Err().Error(), "more") {
		t.Fatalf("error should note the overflow: %v", tr.Err())
	}
}

func TestReportString(t *testing.T) {
	r := &Report{
		Reason:      "deadlock",
		Cycle:       1234,
		MeshPending: 3,
		PoolGets:    100,
		PoolLive:    2,
		Components: []sim.PendingComponent{
			{Index: 0, Label: "core 0", Due: sim.WakeNever, Done: true},
			{Index: 1, Label: "tsocc L1 1", Due: sim.WakeNever, Done: false,
				Detail: "rd tx pending on 0x40"},
			{Index: 2, Label: "mesh 2x2", Due: 1300, Done: true, Detail: "3 pending"},
		},
		Oracle: nil,
	}
	out := r.String()
	for _, want := range []string{
		"forensic report: deadlock at cycle 1234",
		"mesh: 3 queued deliveries; pool: 100 gets, 2 live",
		"[1] tsocc L1 1 due=never PENDING | rd tx pending on 0x40",
		"[2] mesh 2x2 due=1300 done | 3 pending",
		"(1 quiescent completed components omitted)",
		"=== end forensic report ===",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[0] core 0") {
		t.Fatalf("quiescent component should be summarized, not listed:\n%s", out)
	}
}
