package cpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/program"
	"repro/internal/sim"
)

// fakePort is an in-order memory with configurable latency, tracking the
// order operations became globally visible — enough to verify the core's
// TSO write buffer behaviour in isolation.
type fakePort struct {
	mem     map[uint64]uint64
	lat     sim.Cycle
	pending []func()
	fireAt  []sim.Cycle
	order   []string // visibility order log
	busy    bool
}

func newFakePort(lat sim.Cycle) *fakePort {
	return &fakePort{mem: make(map[uint64]uint64), lat: lat}
}

func (f *fakePort) schedule(now sim.Cycle, fn func()) {
	f.pending = append(f.pending, fn)
	f.fireAt = append(f.fireAt, now+f.lat)
}

// Tick fires due completions (call once per cycle before the core).
func (f *fakePort) Tick(now sim.Cycle) {
	var keepF []func()
	var keepT []sim.Cycle
	for i, at := range f.fireAt {
		if at <= now {
			f.pending[i]()
		} else {
			keepF = append(keepF, f.pending[i])
			keepT = append(keepT, at)
		}
	}
	f.pending, f.fireAt = keepF, keepT
}

func (f *fakePort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	v := f.mem[addr]
	f.schedule(now, func() { cb(v) })
	return true
}

func (f *fakePort) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	f.schedule(now, func() {
		f.mem[addr] = val
		f.order = append(f.order, "st")
		cb()
	})
	return true
}

func (f *fakePort) RMW(now sim.Cycle, addr uint64, fn func(uint64) (uint64, bool), cb func(uint64)) bool {
	f.schedule(now, func() {
		old := f.mem[addr]
		if nv, w := fn(old); w {
			f.mem[addr] = nv
		}
		f.order = append(f.order, "rmw")
		cb(old)
	})
	return true
}

func (f *fakePort) Fence(now sim.Cycle, cb func()) bool {
	f.schedule(now, func() {
		f.order = append(f.order, "fence")
		cb()
	})
	return true
}

func runCore(t *testing.T, p *program.Program, port *fakePort, maxCycles int) *Core {
	t.Helper()
	c := New(0, p, port, 8)
	for cy := sim.Cycle(1); cy < sim.Cycle(maxCycles); cy++ {
		port.Tick(cy)
		c.Tick(cy)
		if c.Done() {
			return c
		}
	}
	t.Fatalf("core did not finish in %d cycles (%s)", maxCycles, c.Debug())
	return nil
}

func TestALUOps(t *testing.T) {
	b := program.NewBuilder("alu")
	b.Li(1, 6).Li(2, 7)
	b.Mul(3, 1, 2)  // 42
	b.Add(4, 3, 1)  // 48
	b.Sub(5, 4, 2)  // 41
	b.And(6, 1, 2)  // 6
	b.Or(7, 1, 2)   // 7
	b.Xor(8, 1, 2)  // 1
	b.Mod(9, 4, 5)  // 48 mod 5 = 3
	b.Shl(10, 1, 2) // 24
	b.Mov(11, 3)
	b.Halt()
	c := runCore(t, b.MustBuild(), newFakePort(1), 1000)
	want := map[uint8]int64{3: 42, 4: 48, 5: 41, 6: 6, 7: 7, 8: 1, 9: 3, 10: 24, 11: 42}
	for r, v := range want {
		if c.Reg(r) != v {
			t.Fatalf("r%d = %d, want %d", r, c.Reg(r), v)
		}
	}
}

func TestNegativeMod(t *testing.T) {
	b := program.NewBuilder("negmod")
	b.Li(1, -7)
	b.Mod(2, 1, 5) // Go's % would give -2; our mod is non-negative: 3
	b.Halt()
	c := runCore(t, b.MustBuild(), newFakePort(1), 100)
	if c.Reg(2) != 3 {
		t.Fatalf("mod = %d, want 3", c.Reg(2))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := program.NewBuilder("ldst")
	b.Li(1, 0x1000).Li(2, 99)
	b.St(1, 0, 2)
	b.Fence() // drain so the store is globally performed
	b.Ld(3, 1, 0)
	b.Halt()
	c := runCore(t, b.MustBuild(), newFakePort(2), 1000)
	if c.Reg(3) != 99 {
		t.Fatalf("loaded %d, want 99", c.Reg(3))
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load of a buffered (not yet drained) store must see it without
	// any port traffic — the TSO forwarding requirement.
	port := newFakePort(50) // slow memory: the store sits in the WB
	b := program.NewBuilder("fwd")
	b.Li(1, 0x2000).Li(2, 7)
	b.St(1, 0, 2)
	b.Ld(3, 1, 0) // must forward from the write buffer
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 1000)
	if c.Reg(3) != 7 {
		t.Fatalf("forwarded %d, want 7", c.Reg(3))
	}
	if c.WBForwards.Value() != 1 {
		t.Fatalf("WBForwards = %d, want 1", c.WBForwards.Value())
	}
}

func TestForwardingSeesNewestStore(t *testing.T) {
	port := newFakePort(60)
	b := program.NewBuilder("newest")
	b.Li(1, 0x2000).Li(2, 1).Li(3, 2)
	b.St(1, 0, 2)
	b.St(1, 0, 3) // newer value to the same address
	b.Ld(4, 1, 0)
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 2000)
	if c.Reg(4) != 2 {
		t.Fatalf("forwarded %d, want newest (2)", c.Reg(4))
	}
}

func TestLoadBypassesPendingStores(t *testing.T) {
	// TSO's w→r relaxation: a load to a DIFFERENT address completes
	// while older stores are still buffered.
	port := newFakePort(1)
	port.mem[0x3000] = 5
	b := program.NewBuilder("bypass")
	b.Li(1, 0x2000).Li(2, 9).Li(3, 0x3000)
	b.St(1, 0, 2)
	b.Ld(4, 3, 0)
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 1000)
	if c.Reg(4) != 5 {
		t.Fatalf("loaded %d", c.Reg(4))
	}
}

func TestWriteBufferFIFODrain(t *testing.T) {
	port := newFakePort(3)
	b := program.NewBuilder("fifo")
	b.Li(1, 0x1000)
	for i := int64(0); i < 4; i++ {
		b.Li(2, i+1)
		b.St(1, i*8, 2)
	}
	b.Halt()
	runCore(t, b.MustBuild(), port, 1000)
	for i := uint64(0); i < 4; i++ {
		if port.mem[0x1000+i*8] != i+1 {
			t.Fatalf("store %d not drained correctly", i)
		}
	}
}

func TestWriteBufferCapacityStalls(t *testing.T) {
	port := newFakePort(40)
	b := program.NewBuilder("full")
	b.Li(1, 0x1000)
	b.Li(2, 1)
	for i := int64(0); i < 12; i++ { // more than the 8-entry WB
		b.St(1, i*8, 2)
	}
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 10_000)
	if c.WBFullStalls.Value() == 0 {
		t.Fatal("expected write-buffer-full stalls")
	}
	if c.Stores.Value() != 12 {
		t.Fatalf("stores = %d", c.Stores.Value())
	}
}

func TestAtomicsDrainWriteBufferFirst(t *testing.T) {
	// x86 locked semantics: the RMW must become visible after all
	// earlier stores.
	port := newFakePort(5)
	b := program.NewBuilder("atomic-order")
	b.Li(1, 0x1000).Li(2, 3).Li(3, 1)
	b.St(1, 0, 2)
	b.RmwAdd(4, 1, 8, 3)
	b.Halt()
	runCore(t, b.MustBuild(), port, 1000)
	if len(port.order) < 2 || port.order[0] != "st" || port.order[1] != "rmw" {
		t.Fatalf("visibility order %v, want [st rmw]", port.order)
	}
}

func TestFenceDrainsBeforeCompleting(t *testing.T) {
	port := newFakePort(5)
	b := program.NewBuilder("fence-order")
	b.Li(1, 0x1000).Li(2, 3)
	b.St(1, 0, 2)
	b.Fence()
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 1000)
	if len(port.order) != 2 || port.order[0] != "st" || port.order[1] != "fence" {
		t.Fatalf("order %v, want [st fence]", port.order)
	}
	if c.Fences.Value() != 1 {
		t.Fatalf("fences = %d", c.Fences.Value())
	}
}

func TestCasSemantics(t *testing.T) {
	port := newFakePort(2)
	port.mem[0x1000] = 10
	b := program.NewBuilder("cas")
	b.Li(1, 0x1000)
	b.Li(2, 10) // expected
	b.Li(3, 20) // new
	b.Cas(4, 1, 0, 2, 3)
	b.Li(2, 999) // wrong expectation
	b.Cas(5, 1, 0, 2, 3)
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 1000)
	if c.Reg(4) != 10 {
		t.Fatalf("first CAS returned %d, want 10", c.Reg(4))
	}
	if port.mem[0x1000] != 20 {
		t.Fatal("first CAS did not write")
	}
	if c.Reg(5) != 20 {
		t.Fatalf("second CAS returned %d, want 20", c.Reg(5))
	}
}

func TestRmwXchg(t *testing.T) {
	port := newFakePort(2)
	port.mem[0x1000] = 5
	b := program.NewBuilder("xchg")
	b.Li(1, 0x1000).Li(2, 9)
	b.RmwXchg(3, 1, 0, 2)
	b.Halt()
	c := runCore(t, b.MustBuild(), port, 1000)
	if c.Reg(3) != 5 || port.mem[0x1000] != 9 {
		t.Fatalf("xchg: got %d, mem %d", c.Reg(3), port.mem[0x1000])
	}
}

func TestBranchesAndLoops(t *testing.T) {
	b := program.NewBuilder("loop")
	b.Li(1, 0).Li(2, 10)
	b.Label("top")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "top")
	b.Halt()
	c := runCore(t, b.MustBuild(), newFakePort(1), 1000)
	if c.Reg(1) != 10 {
		t.Fatalf("loop counter = %d", c.Reg(1))
	}
}

func TestNopStalls(t *testing.T) {
	b := program.NewBuilder("nop")
	b.Nop(50)
	b.Halt()
	port := newFakePort(1)
	c := New(0, b.MustBuild(), port, 8)
	done := sim.Cycle(0)
	for cy := sim.Cycle(1); cy < 200; cy++ {
		port.Tick(cy)
		c.Tick(cy)
		if c.Done() {
			done = cy
			break
		}
	}
	if done < 50 {
		t.Fatalf("halted at %d, want >= 50", done)
	}
}

func TestDoneRequiresDrainedWriteBuffer(t *testing.T) {
	port := newFakePort(30)
	b := program.NewBuilder("drain")
	b.Li(1, 0x1000).Li(2, 1)
	b.St(1, 0, 2)
	b.Halt()
	c := New(0, b.MustBuild(), port, 8)
	sawHaltedNotDone := false
	for cy := sim.Cycle(1); cy < 500; cy++ {
		port.Tick(cy)
		c.Tick(cy)
		if c.Done() {
			break
		}
		if cy > 5 && !c.Done() {
			sawHaltedNotDone = true
		}
	}
	if !sawHaltedNotDone {
		t.Fatal("core reported done before draining its write buffer")
	}
	if port.mem[0x1000] != 1 {
		t.Fatal("store lost")
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	b := program.NewBuilder("unaligned")
	b.Li(1, 0x1001)
	b.Ld(2, 1, 0)
	b.Halt()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned access")
		}
	}()
	runCore(t, b.MustBuild(), newFakePort(1), 100)
}

func TestThreadIDConvention(t *testing.T) {
	b := program.NewBuilder("tid")
	b.Mov(1, 0)
	b.Halt()
	c := New(3, b.MustBuild(), newFakePort(1), 8)
	c.SetReg(0, 3)
	port := newFakePort(1)
	_ = port
	for cy := sim.Cycle(1); cy < 100 && !c.Done(); cy++ {
		c.Tick(cy)
	}
	if c.Reg(1) != 3 {
		t.Fatalf("r1 = %d, want thread id 3", c.Reg(1))
	}
}

// TestInstructionCountExact pins Instructions to retirements: issued
// memory ops count once (not again at the execute() epilogue), and
// rejected attempts — port busy, write buffer full — count nothing.
func TestInstructionCountExact(t *testing.T) {
	b := program.NewBuilder("count")
	b.Li(1, 0x1000)      // 1
	b.Ld(2, 1, 0)        // 2
	b.St(1, 8, 2)        // 3
	b.Fence()            // 4
	b.RmwAdd(3, 1, 0, 2) // 5
	b.Halt()             // 6
	c := runCore(t, b.MustBuild(), newFakePort(40), 10_000)
	if got := c.Instructions.Value(); got != 6 {
		t.Fatalf("Instructions = %d, want 6 (one per retired instruction)", got)
	}
	// Write-buffer-full retries must not inflate the count either.
	b2 := program.NewBuilder("wbfull")
	b2.Li(1, 0x1000)
	b2.Li(2, 1)
	for i := int64(0); i < 12; i++ { // overflows the 8-entry WB
		b2.St(1, i*8, 2)
	}
	b2.Halt()
	c2 := runCore(t, b2.MustBuild(), newFakePort(40), 50_000)
	if got := c2.Instructions.Value(); got != 15 {
		t.Fatalf("Instructions = %d, want 15 despite WB-full stalls", got)
	}
	if c2.WBFullStalls.Value() == 0 {
		t.Fatal("test did not exercise WB-full stalls")
	}
}

// TestBatchedExecutionParity drives the same program through an
// unbatched and a batched core against identical fake ports and
// requires the same registers, memory, visibility order, instruction
// count and completion cycle — the core-level version of the engine
// A/B gates. Driven by hand, with no engine clock, the batched core
// retires the run after each load in its next Tick, not in the callback.
func TestBatchedExecutionParity(t *testing.T) {
	build := func() *program.Program {
		b := program.NewBuilder("mix")
		b.Li(1, 0x1000).Li(2, 3).Li(3, 0).Li(4, 6)
		b.Label("loop")
		b.Mul(5, 2, 2)
		b.Add(5, 5, 3)
		b.Xor(6, 5, 2)
		b.Shl(7, 6, 2)
		b.Mod(8, 7, 13)
		b.St(1, 0, 5)   // memory op: batch boundary
		b.Ld(11, 1, 64) // its completion resumes into the run below
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		b.Fence()
		b.RmwAdd(9, 1, 8, 2)
		b.Nop(7)
		b.Ld(10, 1, 0)
		b.Halt()
		return b.MustBuild()
	}
	type run struct {
		c    *Core
		port *fakePort
		done sim.Cycle
	}
	var runs [2]run
	for i, batched := range []bool{false, true} {
		port := newFakePort(4)
		c := New(0, build(), port, 4)
		c.SetBatched(batched)
		for cy := sim.Cycle(1); cy < 5000; cy++ {
			port.Tick(cy)
			c.Tick(cy)
			if c.Done() {
				runs[i] = run{c: c, port: port, done: cy}
				break
			}
		}
		if runs[i].c == nil {
			t.Fatalf("batched=%v: did not finish (%s)", batched, c.Debug())
		}
	}
	a, b := runs[0], runs[1]
	if a.done != b.done {
		t.Fatalf("completion cycle diverged: unbatched %d, batched %d", a.done, b.done)
	}
	for r := uint8(0); r < program.NumRegs; r++ {
		if a.c.Reg(r) != b.c.Reg(r) {
			t.Fatalf("r%d diverged: unbatched %d, batched %d", r, a.c.Reg(r), b.c.Reg(r))
		}
	}
	if a.c.Instructions.Value() != b.c.Instructions.Value() {
		t.Fatalf("instruction count diverged: %d vs %d",
			a.c.Instructions.Value(), b.c.Instructions.Value())
	}
	if len(a.port.order) != len(b.port.order) {
		t.Fatalf("visibility order diverged: %v vs %v", a.port.order, b.port.order)
	}
	for i := range a.port.order {
		if a.port.order[i] != b.port.order[i] {
			t.Fatalf("visibility order diverged at %d: %v vs %v", i, a.port.order, b.port.order)
		}
	}
	for addr, v := range a.port.mem {
		if b.port.mem[addr] != v {
			t.Fatalf("mem[%#x] diverged: %d vs %d", addr, v, b.port.mem[addr])
		}
	}
}

var _ coherence.CorePort = (*fakePort)(nil)
