package system_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/mesi"
	"repro/internal/program"
	"repro/internal/system"
	"repro/internal/tsocc"
)

// counterWorkload has n threads each incrementing a shared counter with
// fetch-and-add `iters` times, plus a private accumulator.
func counterWorkload(n int, iters int64) *program.Workload {
	const counterAddr = 0x1000
	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("counter-t%d", i))
		b.Li(1, counterAddr) // r1 = &counter
		b.Li(2, 1)           // r2 = 1
		b.Li(3, 0)           // r3 = loop count
		b.Li(4, iters)
		b.Label("loop")
		b.RmwAdd(5, 1, 0, 2) // old = fetch_add(counter, 1)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		b.Halt()
		progs[i] = b.MustBuild()
	}
	total := uint64(int64(n) * iters)
	return &program.Workload{
		Name:     "counter",
		Programs: progs,
		Check: func(mem program.MemReader) error {
			if got := mem.ReadWord(counterAddr); got != total {
				return fmt.Errorf("counter = %d, want %d", got, total)
			}
			return nil
		},
	}
}

// producerConsumer reproduces Figure 1: A writes data then flag; B spins
// on flag, then must read A's data.
func producerConsumer() *program.Workload {
	const dataAddr, flagAddr = 0x2000, 0x3000
	a := program.NewBuilder("producer")
	a.Li(1, dataAddr).Li(2, flagAddr).Li(3, 42).Li(4, 1)
	a.St(1, 0, 3) // data = 42
	a.St(2, 0, 4) // flag = 1
	a.Halt()

	b := program.NewBuilder("consumer")
	b.Li(1, dataAddr).Li(2, flagAddr).Li(4, 1)
	b.SpinUntilEq(5, 2, 0, 4) // while (flag == 0);
	b.Ld(6, 1, 0)             // r6 = data
	b.Li(7, 0x4000)
	b.St(7, 0, 6) // publish observation
	b.Fence()
	b.Halt()

	return &program.Workload{
		Name:     "producer-consumer",
		Programs: []*program.Program{a.MustBuild(), b.MustBuild()},
		Check: func(mem program.MemReader) error {
			if got := mem.ReadWord(0x4000); got != 42 {
				return fmt.Errorf("consumer observed data = %d, want 42", got)
			}
			return nil
		},
	}
}

func runOn(t *testing.T, proto system.Protocol, w *program.Workload, cores int) *system.Result {
	t.Helper()
	cfg := config.Small(cores)
	res, err := system.Run(cfg, proto, w)
	if err != nil {
		t.Fatalf("%s on %s: %v", proto.Name(), w.Name, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("%s on %s: functional check: %v", proto.Name(), w.Name, res.CheckErr)
	}
	if res.PoolLive != 0 || res.TxLive != 0 {
		t.Fatalf("%s on %s: leak after clean run: %d pooled message(s), %d transaction(s)",
			proto.Name(), w.Name, res.PoolLive, res.TxLive)
	}
	return res
}

func TestMESIProducerConsumer(t *testing.T) {
	res := runOn(t, mesi.New(), producerConsumer(), 4)
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestMESISharedCounter(t *testing.T) {
	res := runOn(t, mesi.New(), counterWorkload(4, 50), 4)
	if res.RMWs != 200 {
		t.Fatalf("RMWs = %d, want 200", res.RMWs)
	}
}

func TestMESIManyCores(t *testing.T) {
	runOn(t, mesi.New(), counterWorkload(8, 25), 8)
}

func TestMESICapacityEvictions(t *testing.T) {
	// Touch far more blocks than the tiny L1 (and L2 sets) can hold to
	// exercise both L1 and L2 eviction paths.
	b := program.NewBuilder("streamer")
	b.Li(1, 0x10000) // base
	b.Li(2, 0)       // i
	b.Li(3, 512)     // blocks
	b.Li(6, 7)
	b.Label("loop")
	b.Shl(4, 2, 6) // offset = i * 128
	b.Add(4, 4, 1)
	b.St(4, 0, 2) // mem[base+off] = i
	b.Ld(5, 4, 0)
	b.Bne(5, 2, "fail")
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Li(7, 0x5000)
	b.Li(8, 1)
	b.St(7, 0, 8)
	b.Halt()
	b.Label("fail")
	b.Li(7, 0x5000)
	b.Li(8, 2)
	b.St(7, 0, 8)
	b.Halt()

	w := &program.Workload{
		Name:     "streamer",
		Programs: []*program.Program{b.MustBuild()},
		Check: func(mem program.MemReader) error {
			switch mem.ReadWord(0x5000) {
			case 1:
				return nil
			case 2:
				return fmt.Errorf("readback mismatch inside stream")
			default:
				return fmt.Errorf("streamer did not finish")
			}
		},
	}
	runOn(t, mesi.New(), w, 2)
}

// ---- TSO-CC variants on the same workloads ----

func allTSOCCConfigs() []config.TSOCC {
	return []config.TSOCC{
		config.CCSharedToL2(),
		config.Basic(),
		config.NoReset(),
		config.C12x3(),
		config.C12x0(),
		config.C9x3(),
	}
}

func TestTSOCCProducerConsumerAllConfigs(t *testing.T) {
	for _, c := range allTSOCCConfigs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			runOn(t, tsocc.New(c), producerConsumer(), 4)
		})
	}
}

func TestTSOCCSharedCounterAllConfigs(t *testing.T) {
	for _, c := range allTSOCCConfigs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			res := runOn(t, tsocc.New(c), counterWorkload(4, 50), 4)
			if res.RMWs != 200 {
				t.Fatalf("RMWs = %d, want 200", res.RMWs)
			}
		})
	}
}

func TestTSOCCCapacityEvictions(t *testing.T) {
	b := program.NewBuilder("streamer")
	b.Li(1, 0x10000)
	b.Li(2, 0)
	b.Li(3, 512)
	b.Li(6, 7)
	b.Label("loop")
	b.Shl(4, 2, 6)
	b.Add(4, 4, 1)
	b.St(4, 0, 2)
	b.Ld(5, 4, 0)
	b.Bne(5, 2, "fail")
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Li(7, 0x5000)
	b.Li(8, 1)
	b.St(7, 0, 8)
	b.Halt()
	b.Label("fail")
	b.Li(7, 0x5000)
	b.Li(8, 2)
	b.St(7, 0, 8)
	b.Halt()
	w := &program.Workload{
		Name:     "streamer",
		Programs: []*program.Program{b.MustBuild()},
		Check: func(mem program.MemReader) error {
			if got := mem.ReadWord(0x5000); got != 1 {
				return fmt.Errorf("streamer result = %d, want 1", got)
			}
			return nil
		},
	}
	for _, c := range allTSOCCConfigs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			runOn(t, tsocc.New(c), w, 2)
		})
	}
}

// TestTSOCCTimestampResets forces many timestamp-source wraps with a tiny
// timestamp width and checks the epoch machinery keeps the system correct.
func TestTSOCCTimestampResets(t *testing.T) {
	c := config.TSOCC{MaxAccBits: 2, TimestampBits: 4, WriteGroupBits: 0,
		SharedRO: true, EpochBits: 3, DecayWrites: 16}
	res := runOn(t, tsocc.New(c), counterWorkload(4, 100), 4)
	if res.L1.TimestampResets.Value() == 0 {
		t.Fatalf("expected timestamp resets with 4-bit timestamps, got none")
	}
}

// ---- System-level plumbing tests ----

func TestTooManyProgramsRejected(t *testing.T) {
	w := counterWorkload(8, 1)
	if _, err := system.Run(config.Small(4), mesi.New(), w); err == nil {
		t.Fatal("expected error: 8 programs on 4 cores")
	}
}

func TestIdleCoresAllowed(t *testing.T) {
	w := counterWorkload(2, 10)
	res, err := system.Run(config.Small(8), mesi.New(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatal(res.CheckErr)
	}
}

func TestNilProgramSlotsSkipped(t *testing.T) {
	base := counterWorkload(1, 10)
	w := &program.Workload{
		Name:     "sparse",
		Programs: []*program.Program{nil, base.Programs[0], nil},
		Check:    base.Check,
	}
	res, err := system.Run(config.Small(4), tsocc.New(config.C12x3()), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatal(res.CheckErr)
	}
}

// TestHierarchyReaderSeesDirtyL1 verifies functional checks observe
// modified-but-unwritten-back data.
func TestHierarchyReaderSeesDirtyL1(t *testing.T) {
	b := program.NewBuilder("dirty")
	b.Li(1, 0x1000).Li(2, 77)
	b.St(1, 0, 2) // stays Modified in the L1; never written back
	b.Halt()
	w := &program.Workload{
		Name:     "dirty-l1",
		Programs: []*program.Program{b.MustBuild()},
		Check: func(mem program.MemReader) error {
			if got := mem.ReadWord(0x1000); got != 77 {
				return fmt.Errorf("hierarchy reader saw %d, want 77", got)
			}
			return nil
		},
	}
	for _, proto := range []system.Protocol{mesi.New(), tsocc.New(config.C12x3())} {
		res, err := system.Run(config.Small(2), proto, w)
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		if res.CheckErr != nil {
			t.Fatalf("%s: %v", proto.Name(), res.CheckErr)
		}
	}
}

func TestInitMemVisibleToPrograms(t *testing.T) {
	b := program.NewBuilder("reader")
	b.Li(1, 0x2000)
	b.Ld(2, 1, 0)
	b.Li(3, 0x3000)
	b.St(3, 0, 2)
	b.Fence()
	b.Halt()
	w := &program.Workload{
		Name:     "init",
		Programs: []*program.Program{b.MustBuild()},
		InitMem:  map[uint64]uint64{0x2000: 1234},
		Check: func(mem program.MemReader) error {
			if got := mem.ReadWord(0x3000); got != 1234 {
				return fmt.Errorf("program read %d from initialized memory", got)
			}
			return nil
		},
	}
	res, err := system.Run(config.Small(2), tsocc.New(config.Basic()), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatal(res.CheckErr)
	}
}

func TestResultSummaryRenders(t *testing.T) {
	res := runOn(t, mesi.New(), counterWorkload(2, 5), 2)
	s := res.Summary()
	for _, want := range []string{"cycles", "rmws", "network flits"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestCrossProtocolFunctionalEquivalence: the same workload must compute
// the same final values under every protocol (only timing may differ).
func TestCrossProtocolFunctionalEquivalence(t *testing.T) {
	read := func(proto system.Protocol) uint64 {
		w := counterWorkload(4, 25)
		res, err := system.Run(config.Small(4), proto, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckErr != nil {
			t.Fatal(res.CheckErr)
		}
		return uint64(res.RMWs)
	}
	base := read(mesi.New())
	for _, c := range allTSOCCConfigs() {
		if got := read(tsocc.New(c)); got != base {
			t.Fatalf("%s: RMW count %d != MESI %d", c.Name(), got, base)
		}
	}
}

// TestShardedRaggedMesh: a prime core count sits on a two-row grid with
// a spare router that carries links but no endpoint. The run must pass
// its functional check, and setting the deprecated Shards field (the
// benchmark still assigns it) must leave it bit-identical in both
// engine modes.
func TestShardedRaggedMesh(t *testing.T) {
	for _, proto := range []system.Protocol{mesi.New(), tsocc.New(config.C12x3())} {
		cfg := config.Small(13)
		want, err := system.Run(cfg, proto, counterWorkload(13, 10))
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		if want.CheckErr != nil {
			t.Fatalf("%s: functional check: %v", proto.Name(), want.CheckErr)
		}
		cfg.Shards = 3
		for _, perCycle := range []bool{false, true} {
			cfg.PerCycleEngine = perCycle
			got, err := system.Run(cfg, proto, counterWorkload(13, 10))
			if err != nil {
				t.Fatalf("%s Shards=3 per-cycle=%v: %v", proto.Name(), perCycle, err)
			}
			if got.CheckErr != nil || got.Cycles != want.Cycles || got.FlitHops != want.FlitHops {
				t.Fatalf("%s: Shards=3 per-cycle=%v run (cycles %d, flit-hops %d, check %v) diverged from the plain run (%d, %d)",
					proto.Name(), perCycle, got.Cycles, got.FlitHops, got.CheckErr, want.Cycles, want.FlitHops)
			}
		}
	}
}
