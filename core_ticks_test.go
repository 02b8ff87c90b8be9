package repro_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/tsocc"
)

// tickCount counts the engine's ticks of one front end.
type tickCount struct {
	system.Frontend
	ticks int64
}

func (c *tickCount) Tick(now sim.Cycle) {
	c.ticks++
	c.Frontend.Tick(now)
}

// countFrontTicks runs m on a fresh engine with its components registered
// in the machine's own order, counting front end 0's ticks, and returns
// the count and the final cycle. The run ends when the memory system is
// idle too, as system.Run's does.
func countFrontTicks(t *testing.T, m *system.Machine) (int64, sim.Cycle) {
	t.Helper()
	e := sim.NewEngine(m.Cfg.MaxCycles)
	e.Register(m.Net)
	for _, c := range m.L2s {
		e.Register(c)
	}
	for _, l := range m.L1s {
		e.Register(l)
	}
	counted := &tickCount{Frontend: m.Fronts[0]}
	e.Register(counted)
	for _, f := range m.Fronts[1:] {
		e.Register(f)
	}
	e.RegisterDoner(idleMemory{m})
	cycles, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return counted.ticks, cycles
}

// idleMemory is done once no controller is busy and the mesh is empty.
type idleMemory struct{ m *system.Machine }

func (q idleMemory) Done() bool {
	for _, l := range q.m.L1s {
		if l.Busy() {
			return false
		}
	}
	for _, l := range q.m.L2s {
		if l.Busy() {
			return false
		}
	}
	return q.m.Net.Pending() == 0
}

// TestBatchedCoreTicksPerMemOp pins what a batched core costs the
// engine on a load-hit loop: one tick per memory op plus one per store
// drain, and one each for the run before the loop and for the halt.
// The register run after each load retires in the load's completion,
// and a store's ack wakes nobody. The run's fingerprint is the
// unbatched referee's.
func TestBatchedCoreTicksPerMemOp(t *testing.T) {
	const iters = 300
	for _, loop := range []struct {
		name       string
		body       func(*program.Builder)
		memOps     int64
		drains     int64
		wantStores int64
	}{
		{"ld", func(b *program.Builder) { b.Ld(4, 1, 0) }, iters, 0, 0},
		{"ld-st", func(b *program.Builder) { b.Ld(4, 1, 0).St(5, 0, 4) }, 2*iters + 1, iters, iters},
	} {
		t.Run(loop.name, func(t *testing.T) {
			b := program.NewBuilder("hitloop-" + loop.name)
			b.Li(1, 0x1000).Li(5, 0x2000).Li(2, 0).Li(3, iters)
			if loop.drains > 0 {
				// Own the stored line first: the loop's stores then hit, so
				// the write buffer never fills and makes the core poll.
				b.RmwAdd(7, 5, 0, 2)
			}
			b.Label("loop")
			loop.body(b)
			b.Addi(6, 6, 3)
			b.Addi(2, 2, 1)
			b.Blt(2, 3, "loop")
			b.Halt()
			w := &program.Workload{Name: "hitloop", Programs: []*program.Program{b.MustBuild()}}
			proto := tsocc.New(config.C12x3())
			cfg := config.Scaled(1)
			var fps [2]string
			var cycles sim.Cycle
			for i, batched := range []bool{false, true} {
				cfg.BatchedCore = batched
				r, err := system.Run(cfg, proto, w)
				if err != nil {
					t.Fatal(err)
				}
				fps[i], cycles = fingerprint(r), r.Cycles
				if r.Stores != loop.wantStores {
					t.Fatalf("batched=%v: %d stores, want %d", batched, r.Stores, loop.wantStores)
				}
			}
			if fps[0] != fps[1] {
				t.Fatalf("batched run diverged from the unbatched referee:\n unbatched %s\n   batched %s", fps[0], fps[1])
			}
			m, err := system.NewMachine(cfg, proto, w)
			if err != nil {
				t.Fatal(err)
			}
			ticks, end := countFrontTicks(t, m)
			if end != cycles {
				t.Fatalf("counted run ended at cycle %d, system.Run at %d", end, cycles)
			}
			if want := loop.memOps + loop.drains + 2; ticks != want {
				t.Fatalf("batched core ticked %d times, want %d: %d memory ops + %d store drains + the opening run and the halt",
					ticks, want, loop.memOps, loop.drains)
			}
		})
	}
}

// TestRegisterLoopHitsCycleLimit: a loop of register ops alone never
// halts, and the batched core retires it in capped runs, so every
// engine × core mode stops at the cycle limit with a DeadlockError
// instead of spinning inside one tick.
func TestRegisterLoopHitsCycleLimit(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	w := &program.Workload{Name: "spin", Programs: []*program.Program{b.MustBuild()}}
	const limit = 20_000
	for _, c := range modes {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Small(1)
			cfg.MaxCycles, cfg.PerCycleEngine, cfg.BatchedCore = limit, c.perCycle, c.batched
			proto, done := protocol(t, flagship), make(chan error, 1)
			go func() {
				_, err := system.Run(cfg, proto, w)
				done <- err
			}()
			select {
			case err := <-done:
				var dl *sim.DeadlockError
				if !errors.As(err, &dl) || dl.Stalled || dl.Cycle != limit || dl.Limit != limit {
					t.Fatalf("got %v, want a DeadlockError at the %d-cycle limit", err, limit)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a register-only loop held the engine past 30 s")
			}
		})
	}
}
