// Package cpu models the processor cores. Each Core executes a
// program.Program over a TSO memory system: committed stores enter a
// FIFO write buffer and drain one at a time (each waits for its
// predecessor's coherence state change to complete, giving w→w order),
// loads bypass the write buffer with store→load forwarding (the TSO w→r
// relaxation), and atomics/fences drain the buffer first (x86 locked
// semantics). This is exactly the memory-event interface the paper's
// gem5 cores present to the Ruby coherence protocol; Front implements it
// once, for Core and trace.ReplayCore alike.
package cpu

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
)

// Core is one simulated processor: program execution over the shared
// TSO front end (Front), which issues its memory operations.
type Core struct {
	Front
	prog *program.Program

	regs [program.NumRegs]int64
	pc   int

	stallUntil sim.Cycle

	// batched enables run execution: every register and branch
	// instruction up to the next memory, fence, pause or halt op (at most
	// runCap of them) retires in one step and the core stalls over the
	// cycles they would have occupied, so the idle-skip engine leaps them
	// instead of re-entering the core.
	batched bool

	// Memory-trace capture (config.System.TraceOut). While enabled, the
	// core accumulates the compute delta since the last recorded event:
	// traceGap in cycles (the Gap contract documented on
	// config.TraceEvent), traceIns in retired instructions. Every hook
	// is guarded by a trace-nil check, so disabled capture costs one
	// predictable branch per retirement and zero allocations.
	trace    config.TraceSink
	traceGap int64
	traceIns int64
}

// New builds a core executing prog against port, with a write buffer of
// wbEntries slots.
func New(id int, prog *program.Program, port coherence.CorePort, wbEntries int) *Core {
	c := &Core{prog: prog}
	c.Init("core", id, port, wbEntries, c.resume)
	return c
}

// runCap bounds one batched run, so a register-only loop retires in
// runCap-cycle steps the engine's cycle limit still sees, not in one
// step that never ends.
const runCap = 4096

// SetBatched toggles batched run execution (config.System.BatchedCore).
// Both settings produce bit-identical simulations: runs contain only
// register/branch instructions, whose intermediate state nothing
// outside the core can observe, and a run accounts for exactly the
// cycles per-cycle execution would have spent.
func (c *Core) SetBatched(on bool) { c.batched = on }

// SetTrace attaches a capture sink (config.System.TraceOut). Must be
// called before the first Tick: the gap accumulator starts at 1 because
// the first instruction dispatches on cycle 1, one cycle after the
// stream's cycle-0 anchor.
func (c *Core) SetTrace(sink config.TraceSink) {
	c.trace = sink
	c.traceGap = 1
	c.traceIns = 0
}

// Reg returns the architectural value of register r (for tests/litmus).
func (c *Core) Reg(r uint8) int64 { return c.regs[r] }

// SetReg seeds a register before execution (thread id, base pointers).
func (c *Core) SetReg(r uint8, v int64) { c.regs[r] = v }

// Tick advances the core one cycle. Register and branch instructions
// retire through executeRun — a whole run when batched, one instruction
// otherwise — and everything else through execute.
func (c *Core) Tick(now sim.Cycle) {
	if !c.Begin(now) || now < c.stallUntil {
		return
	}
	c.Dispatch(now)
	if c.prog == nil || c.pc >= len(c.prog.Instrs) {
		c.Halt()
		return
	}
	limit := 1
	if c.batched {
		limit = runCap
	}
	if c.executeRun(now, limit) == 0 {
		c.execute(now, &c.prog.Instrs[c.pc])
	}
}

// resume is the front end's completion hook. A batched core retires the
// run that follows the completed load, RMW or fence on the callback
// cycle, the cycle its next Tick would have retired it on, and reports
// the cycle that run stalls it until, so the core is next ticked there.
// The unbatched referee retires nothing here and is ticked on the
// callback cycle.
func (c *Core) resume(now sim.Cycle) sim.Cycle {
	if c.batched {
		c.Dispatch(now)
		c.executeRun(now, runCap)
	}
	return c.stallUntil
}

// executeRun is the core's one ALU: it retires up to limit register and
// branch instructions, following taken branches, and stops before the
// first memory, fence, atomic, pause or halt op or at the program's end.
// It then stalls the core until now+n for the n it retired — exactly the
// cycle at which per-cycle execution would reach the next instruction
// (limit 1 is per-cycle execution itself). Nothing outside the core can
// observe the run's intermediate state; NextWake's stallUntil path
// reports the end of the run to the engine, which leaps the intervening
// idle cycles.
func (c *Core) executeRun(now sim.Cycle, limit int) (n int) {
	pc := c.pc
	ins := c.prog.Instrs
	regs := &c.regs
run:
	for ; n < limit && pc < len(ins); n++ {
		in := &ins[pc]
		pc++
		switch in.Op {
		case program.OpLI:
			regs[in.Dst] = in.Imm
		case program.OpMov:
			regs[in.Dst] = regs[in.A]
		case program.OpAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case program.OpAddi:
			regs[in.Dst] = regs[in.A] + in.Imm
		case program.OpSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case program.OpMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case program.OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case program.OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case program.OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case program.OpMod:
			m := regs[in.A] % in.Imm
			if m < 0 {
				m += in.Imm
			}
			regs[in.Dst] = m
		case program.OpShl:
			regs[in.Dst] = regs[in.A] << uint(in.Imm)
		case program.OpBeq:
			if regs[in.A] == regs[in.B] {
				pc = in.Target
			}
		case program.OpBne:
			if regs[in.A] != regs[in.B] {
				pc = in.Target
			}
		case program.OpBlt:
			if regs[in.A] < regs[in.B] {
				pc = in.Target
			}
		case program.OpBge:
			if regs[in.A] >= regs[in.B] {
				pc = in.Target
			}
		case program.OpJmp:
			pc = in.Target
		default:
			pc-- // not a register op: the run ends before it
			break run
		}
	}
	if n == 0 {
		return 0
	}
	c.pc = pc
	c.stallUntil = now + sim.Cycle(n)
	c.Instructions.Add(int64(n))
	if c.stalls.On() && n > 1 {
		// The run's interior cycles never tick; attribute them now.
		c.stalls.hist.Observe(obs.StallBatchInterior, int64(n-1))
	}
	if c.trace != nil {
		// A run of n register/branch instructions occupies exactly n
		// cycles, so batched and unbatched execution record the same
		// trace.
		c.traceGap += int64(n)
		c.traceIns += int64(n)
	}
	return n
}

// NextWake implements sim.WakeHinter. The core must be ticked while it
// has self-driven work: an instruction to execute, a stall expiring, or
// a write-buffer head to (re)issue. While blocked on an L1 callback it
// is externally driven: the callback (inside the L1's tick for a miss,
// at the start of the cycle as an engine completion event for a hit)
// runs resume and wakes the core through its Waker at the end of the
// run resume retired — or on the callback cycle, while the core's turn
// is still ahead, if there is no run or a buffered store must issue.
func (c *Core) NextWake(now sim.Cycle) sim.Cycle { return c.NextWakeFrom(now, c.stallUntil) }

// execute runs one memory, fence, pause or halt instruction. Each
// retires exactly once: a memory or fence op the front end rejects (port
// busy, write buffer full, pending drain) retires nothing and is retried
// next tick; one it accepts retires now, whether it completed (Sync) or
// awaits its callback (Async), and is recorded for trace capture.
func (c *Core) execute(now sim.Cycle, in *program.Instr) {
	var ev config.TraceEvent
	var out Outcome
	switch in.Op {
	case program.OpLd:
		ev = config.TraceEvent{Op: config.TraceLoad, Addr: c.effAddr(in)}
		out = c.IssueLoad(now, ev.Addr, &c.regs[in.Dst])
	case program.OpSt:
		ev = config.TraceEvent{Op: config.TraceStore, Addr: c.effAddr(in), Val: uint64(c.regs[in.B])}
		out = c.IssueStore(now, ev.Addr, ev.Val)
	case program.OpRmwAdd, program.OpRmwXchg, program.OpCas:
		ev = config.TraceEvent{Op: config.TraceRMWAdd, Addr: c.effAddr(in), Val: uint64(c.regs[in.B])}
		switch in.Op {
		case program.OpRmwXchg:
			ev.Op = config.TraceRMWXchg
		case program.OpCas:
			ev.Op, ev.Val2 = config.TraceCAS, uint64(c.regs[in.C])
		}
		out = c.IssueAtomic(now, ev.Op, ev.Addr, ev.Val, ev.Val2, &c.regs[in.Dst])
	case program.OpFence:
		ev.Op = config.TraceFence
		out = c.IssueFence(now)
	case program.OpNop:
		c.stallUntil = now + sim.Cycle(in.Imm)
		c.pc++
		c.Instructions.Inc()
		if c.trace != nil {
			// A pause dispatches at T and releases the core at T+max(Imm,1).
			c.traceGap += max(in.Imm, 1)
			c.traceIns++
		}
		return
	case program.OpHalt:
		c.Halt()
		c.Instructions.Inc()
		if c.trace != nil {
			// Close the stream: the trailing compute distance lets replay
			// halt — and therefore quiesce — on the original cycle.
			c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: config.TraceHalt,
				Gap: c.traceGap, Instrs: c.traceIns + 1})
		}
		return
	default:
		panic(fmt.Sprintf("cpu: core %d: bad opcode %v", c.ID, in.Op))
	}
	if out == Rejected {
		return // retry next cycle without advancing pc
	}
	c.pc++
	c.Instructions.Inc()
	if c.trace != nil {
		ev.Core, ev.Gap, ev.Instrs = c.ID, c.traceGap, c.traceIns+1
		c.trace.RecordOp(ev)
		// After a synchronous completion the instruction itself occupies
		// one cycle before the next dispatch; after an asynchronous one
		// the next instruction dispatches on the callback cycle itself.
		// Replay makes the same decisions against its identical front
		// end, so the trace needs no forwarded marker.
		c.traceGap, c.traceIns = 0, 0
		if out == Sync {
			c.traceGap = 1
		}
	}
}

func (c *Core) effAddr(in *program.Instr) uint64 {
	a := uint64(c.regs[in.A] + in.Imm)
	if a%8 != 0 {
		panic(fmt.Sprintf("cpu: core %d pc %d: unaligned address %#x", c.ID, c.pc, a))
	}
	return a
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (c *Core) ComponentLabel() string { return fmt.Sprintf("core %d", c.ID) }

// Debug renders the core's execution state (deadlock diagnostics).
func (c *Core) Debug() string {
	instr := "?"
	if c.prog != nil && c.pc-1 >= 0 && c.pc-1 < len(c.prog.Instrs) {
		instr = c.prog.Instrs[c.pc-1].String()
	}
	return fmt.Sprintf("core %d: pc=%d (prev: %s) %s stallUntil=%d",
		c.ID, c.pc, instr, c.State(), c.stallUntil)
}
