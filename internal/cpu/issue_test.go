package cpu

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
)

// scriptPort is a CorePort whose answers the test scripts: a kind is
// refused while its reject flag is set, every call is logged with its
// cycle and answer, and accepted completions wait until the test fires
// them on the cycle it chooses (before the core's tick, as an L1 would).
type scriptPort struct {
	rejectLoad, rejectStore, rejectRMW, rejectFence bool

	calls []portCall

	load, rmw func(uint64)
	store     func()
	fence     func()
}

type portCall struct {
	kind string
	at   sim.Cycle
	addr uint64
	ok   bool
}

func (p *scriptPort) log(kind string, at sim.Cycle, addr uint64, reject bool) bool {
	p.calls = append(p.calls, portCall{kind, at, addr, !reject})
	return !reject
}

func (p *scriptPort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	if !p.log("ld", now, addr, p.rejectLoad) {
		return false
	}
	p.load = cb
	return true
}

func (p *scriptPort) Store(now sim.Cycle, addr, _ uint64, cb func()) bool {
	if !p.log("st", now, addr, p.rejectStore) {
		return false
	}
	p.store = cb
	return true
}

func (p *scriptPort) RMW(now sim.Cycle, addr uint64, _ func(uint64) (uint64, bool), cb func(uint64)) bool {
	if !p.log("rmw", now, addr, p.rejectRMW) {
		return false
	}
	p.rmw = cb
	return true
}

func (p *scriptPort) Fence(now sim.Cycle, cb func()) bool {
	if !p.log("fence", now, 0, p.rejectFence) {
		return false
	}
	p.fence = cb
	return true
}

// accepted lists the accepted calls as "kind@cycle".
func (p *scriptPort) accepted() []string {
	var out []string
	for _, c := range p.calls {
		if c.ok {
			out = append(out, fmt.Sprintf("%s@%d", c.kind, c.at))
		}
	}
	return out
}

func sameCalls(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("accepted port calls %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("accepted port calls %v, want %v", got, want)
		}
	}
}

// stalls attaches fresh stall histograms to c and returns a reader of
// one reason's (episodes, cycles).
func stalls(c *Core) func(obs.StallReason) (int64, int64) {
	reg := obs.NewRegistry()
	c.SetStalls(reg.NewCoreStalls("core0"))
	return func(r obs.StallReason) (int64, int64) {
		s := reg.HistSnapshotFor("core0.stall." + r.String())
		return s.Count, s.Sum
	}
}

// TestIssueForwardedLoadIsSync: a load that hits the write buffer never
// reaches the port and retires on its own cycle, so the next instruction
// dispatches on the following one.
func TestIssueForwardedLoadIsSync(t *testing.T) {
	b := program.NewBuilder("fwd")
	b.Li(1, 0x1000).Li(2, 7)
	b.St(1, 0, 2) // cycle 3: buffered
	b.Ld(3, 1, 0) // cycle 4: forwarded (the drain issued the store first)
	b.Ld(4, 1, 8) // cycle 5: to the port
	b.Halt()
	p := &scriptPort{}
	c := New(0, b.MustBuild(), p, 4)
	for now := sim.Cycle(1); now <= 5; now++ {
		c.Tick(now)
	}
	sameCalls(t, p.accepted(), "st@4", "ld@5")
	if c.Reg(3) != 7 || c.Loads.Value() != 2 || c.WBForwards.Value() != 1 {
		t.Fatalf("r3 = %d, loads %d, forwards %d; want 7, 2, 1",
			c.Reg(3), c.Loads.Value(), c.WBForwards.Value())
	}
	if c.Instructions.Value() != 5 {
		t.Fatalf("instructions %d, want 5", c.Instructions.Value())
	}
	if c.NextWake(5) != sim.WakeNever {
		t.Fatal("a core waiting on a load must not wake itself")
	}
}

// TestIssuePortRejectRetries: a refused load retires nothing, is
// retried every cycle and is attributed to port_busy; once accepted the
// core waits (miss_outstanding) until the callback's cycle.
func TestIssuePortRejectRetries(t *testing.T) {
	b := program.NewBuilder("busy")
	b.Li(1, 0x1000)
	b.Ld(2, 1, 0)
	b.Halt()
	p := &scriptPort{rejectLoad: true}
	c := New(0, b.MustBuild(), p, 4)
	stall := stalls(c)
	for now := sim.Cycle(1); now <= 8; now++ {
		p.rejectLoad = now < 4
		if now == 7 {
			p.load(5)
		}
		c.Tick(now)
		if now == 3 && c.Instructions.Value() != 1 {
			t.Fatalf("rejected attempts retired: %d instructions", c.Instructions.Value())
		}
	}
	if len(p.calls) != 3 || p.calls[0].ok || p.calls[1].ok || !p.calls[2].ok || p.calls[2].at != 4 {
		t.Fatalf("port calls %+v, want refused at 2, 3 and accepted at 4", p.calls)
	}
	if !c.Done() || c.Reg(2) != 5 || c.Loads.Value() != 1 || c.Instructions.Value() != 3 {
		t.Fatalf("done %v, r2 %d, loads %d, instructions %d", c.Done(), c.Reg(2),
			c.Loads.Value(), c.Instructions.Value())
	}
	// Every attempt closes the open episode and the refusal opens the
	// next: one episode per refused cycle.
	if n, cy := stall(obs.StallPortBusy); n != 2 || cy != 2 {
		t.Fatalf("port_busy %d episodes / %d cycles, want 2 / 2", n, cy)
	}
	if n, cy := stall(obs.StallMissOutstanding); n != 1 || cy != 3 {
		t.Fatalf("miss_outstanding %d episodes / %d cycles, want 1 / 3", n, cy)
	}
}

// TestIssueFullBufferRejects: a store that finds the write buffer full
// is refused, counted in WBFullStalls on every attempt and attributed to
// wb_full, and enters the buffer on the cycle the head's callback frees
// a slot.
func TestIssueFullBufferRejects(t *testing.T) {
	b := program.NewBuilder("full")
	b.Li(1, 0x1000)
	b.St(1, 0, 1) // cycle 2: buffered
	b.St(1, 8, 1) // cycles 3, 4: full; 5: buffered
	b.Halt()
	p := &scriptPort{}
	c := New(0, b.MustBuild(), p, 1)
	stall := stalls(c)
	for now := sim.Cycle(1); now <= 6; now++ {
		if now == 5 {
			p.store()
		}
		c.Tick(now)
	}
	if c.WBFullStalls.Value() != 2 || c.Stores.Value() != 2 {
		t.Fatalf("wb_full_stalls %d, stores %d; want 2, 2", c.WBFullStalls.Value(), c.Stores.Value())
	}
	if n, cy := stall(obs.StallWBFull); n != 2 || cy != 2 {
		t.Fatalf("wb_full %d episodes / %d cycles, want 2 / 2", n, cy)
	}
	// The second store drains on the tick after it was buffered.
	sameCalls(t, p.accepted(), "st@3", "st@6")
}

// TestIssueDrainBeforeLockedOps: an atomic or a fence with stores still
// buffered is refused without a port call and attributed to
// fence_drain; it issues on the cycle the last store's callback fires.
func TestIssueDrainBeforeLockedOps(t *testing.T) {
	b := program.NewBuilder("drain")
	b.Li(1, 0x1000)
	b.St(1, 0, 1)        // 2: buffered; drains at 3
	b.RmwAdd(2, 1, 8, 1) // 3, 4: refused; 5: issued (store acked at 5)
	b.St(1, 0, 1)        // 6: buffered (rmw acked at 6); drains at 7
	b.Fence()            // 7: refused; 8: issued (store acked at 8)
	b.Halt()             // 9 (fence acked at 9)
	p := &scriptPort{}
	c := New(0, b.MustBuild(), p, 4)
	stall := stalls(c)
	for now := sim.Cycle(1); now <= 9; now++ {
		switch now {
		case 5, 8:
			p.store()
		case 6:
			p.rmw(40)
		case 9:
			p.fence()
		}
		c.Tick(now)
	}
	sameCalls(t, p.accepted(), "st@3", "rmw@5", "st@7", "fence@8")
	if len(p.calls) != 4 {
		t.Fatalf("port calls %+v: a refused locked op must not reach the port", p.calls)
	}
	if !c.Done() || c.Reg(2) != 40 || c.RMWs.Value() != 1 || c.Fences.Value() != 1 {
		t.Fatalf("done %v, r2 %d, rmws %d, fences %d", c.Done(), c.Reg(2), c.RMWs.Value(), c.Fences.Value())
	}
	// Episodes: the rmw's drain 3→4 and 4→5, the fence's drain 7→8,
	// then the issued fence's own wait 8→9.
	if n, cy := stall(obs.StallFenceDrain); n != 4 || cy != 4 {
		t.Fatalf("fence_drain %d episodes / %d cycles, want 4 / 4", n, cy)
	}
}

// TestFrontOutcomes drives the shared issue path directly: the outcome
// and the stall reason it opens, per op kind and refusal cause.
func TestFrontOutcomes(t *testing.T) {
	p := &scriptPort{}
	f := new(Front)
	f.Init("core", 0, p, 1, func(now sim.Cycle) sim.Cycle { return now })
	f.SetStalls(obs.NewRegistry().NewCoreStalls("core0"))
	var dst int64
	now := sim.Cycle(1)
	try := func(what string, got, want Outcome, why obs.StallReason) {
		t.Helper()
		if got != want || f.stalls.why != why {
			t.Fatalf("%s: outcome %d, stall %d; want %d, %d", what, got, f.stalls.why, want, why)
		}
		now++
		f.Dispatch(now)
	}
	try("store into a free slot", f.IssueStore(now, 0x40, 7), Sync, obs.StallNone)
	try("load of a buffered address", f.IssueLoad(now, 0x40, &dst), Sync, obs.StallNone)
	if dst != 7 || len(p.calls) != 0 {
		t.Fatalf("forwarded %d with port calls %v; want 7 and none", dst, p.calls)
	}
	try("store into a full buffer", f.IssueStore(now, 0x80, 1), Rejected, obs.StallWBFull)
	try("atomic behind a store", f.IssueAtomic(now, config.TraceRMWAdd, 0x80, 1, 0, &dst), Rejected, obs.StallFenceDrain)
	try("fence behind a store", f.IssueFence(now), Rejected, obs.StallFenceDrain)
	if f.WBFullStalls.Value() != 1 || len(p.calls) != 0 {
		t.Fatalf("wb_full_stalls %d, port calls %v; want 1 and none", f.WBFullStalls.Value(), p.calls)
	}
	if !f.Begin(now) {
		t.Fatal("an idle front end may dispatch")
	}
	p.store() // the drained head retires: the buffer is empty
	p.rejectLoad = true
	try("load on a busy port", f.IssueLoad(now, 0x80, &dst), Rejected, obs.StallPortBusy)
	p.rejectLoad = false
	try("load to the port", f.IssueLoad(now, 0x80, &dst), Async, obs.StallMissOutstanding)
	if f.Begin(now) || f.NextWakeFrom(now, 0) != sim.WakeNever {
		t.Fatal("a front end waiting on a load must neither dispatch nor wake itself")
	}
	p.load(9)
	try("atomic on a drained buffer", f.IssueAtomic(now, config.TraceCAS, 0x80, 9, 11, &dst), Async, obs.StallMissOutstanding)
	p.rmw(9)
	try("fence on a drained buffer", f.IssueFence(now), Async, obs.StallFenceDrain)
	p.fence()
	if dst != 9 || f.Loads.Value() != 2 || f.RMWs.Value() != 1 || f.Fences.Value() != 1 || f.Stores.Value() != 1 {
		t.Fatalf("dst %d, loads/rmws/fences/stores %d/%d/%d/%d; want 9, 2/1/1/1", dst,
			f.Loads.Value(), f.RMWs.Value(), f.Fences.Value(), f.Stores.Value())
	}
	f.Halt()
	if !f.Done() {
		t.Fatalf("halted and drained but not done: %s", f.State())
	}
}
