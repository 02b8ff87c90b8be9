package cpu

import (
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
)

// fuzzPort is a CorePort over a word map, registered on the engine ahead
// of the core as an L1 is. Call k is answered from script[k%len]: bit 7
// refuses a load, RMW or fence (port busy; never twice in a row), bit 6
// makes an accepted one block stores until it completes, and the low
// six bits are the latency of an accepted op, up to 64 cycles, so some
// completions land past the engine's 64-slot wheel. Even calls complete
// through an engine completion event, as an L1 hit does, odd ones from
// the port's own tick, as a miss does. Stores are refused exactly while
// a blocking op is in flight, whose completion wakes the core to retry:
// the L1's decline contract. The per-cycle engine retries a refused
// store every cycle and the wake-set engine once, on the completion, so
// refused stores are neither logged nor counted as calls.
type fuzzPort struct {
	waker    sim.Waker
	script   []byte
	mem      map[uint64]uint64
	calls    []string
	refused  bool
	blocking int          // blocking loads, RMWs and fences in flight
	due      []fuzzFiring // completions the port's tick fires
}

type fuzzFiring struct {
	at   sim.Cycle
	fire func()
}

func (p *fuzzPort) BindWaker(w sim.Waker) { p.waker = w }

func (p *fuzzPort) Tick(now sim.Cycle) {
	keep := p.due[:0]
	for _, d := range p.due {
		if d.at <= now {
			d.fire()
		} else {
			keep = append(keep, d)
		}
	}
	p.due = keep
}

func (p *fuzzPort) NextWake(sim.Cycle) sim.Cycle {
	next := sim.WakeNever
	for _, d := range p.due {
		next = min(next, d.at)
	}
	return next
}

// next is the script byte answering the next call.
func (p *fuzzPort) next() byte { return p.script[len(p.calls)%len(p.script)] }

// admit logs call kind and reports whether the port accepts it; on
// acceptance it files done to run after the scripted latency.
func (p *fuzzPort) admit(kind string, now sim.Cycle, addr uint64, refuse bool, done func()) bool {
	k, b := len(p.calls), p.next()
	p.calls = append(p.calls, fmt.Sprintf("%s@%d %#x %v", kind, now, addr, !refuse))
	if refuse {
		return false
	}
	at := now + 1 + sim.Cycle(b&0x3f)
	if k%2 == 0 {
		p.waker.DoneAt(at, done)
	} else {
		p.due = append(p.due, fuzzFiring{at, done})
		p.waker.WakeAt(at)
	}
	return true
}

// refuse draws the scripted port-busy answer for the next call.
func (p *fuzzPort) refuse() bool {
	p.refused = !p.refused && p.next()&0x80 != 0
	return p.refused
}

// await admits a load, RMW or fence; a blocking one refuses stores
// until just before cb runs.
func (p *fuzzPort) await(kind string, now sim.Cycle, addr uint64, cb func()) bool {
	block := p.next()&0x40 != 0
	done := cb
	if block {
		done = func() { p.blocking--; cb() }
	}
	if !p.admit(kind, now, addr, p.refuse(), done) {
		return false
	}
	if block {
		p.blocking++
	}
	return true
}

func (p *fuzzPort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	v := p.mem[addr]
	return p.await("ld", now, addr, func() { cb(v) })
}

func (p *fuzzPort) Store(now sim.Cycle, addr, val uint64, cb func()) bool {
	if p.blocking > 0 || !p.admit("st", now, addr, false, cb) {
		return false
	}
	p.mem[addr] = val
	return true
}

func (p *fuzzPort) RMW(now sim.Cycle, addr uint64, fn func(uint64) (uint64, bool), cb func(uint64)) bool {
	old := p.mem[addr]
	if !p.await("rmw", now, addr, func() { cb(old) }) {
		return false
	}
	if nv, ok := fn(old); ok {
		p.mem[addr] = nv
	}
	return true
}

func (p *fuzzPort) Fence(now sim.Cycle, cb func()) bool {
	return p.await("fence", now, 0, cb)
}

// haltWatch notes the cycle its core executed halt.
type haltWatch struct {
	*Core
	halt sim.Cycle
}

func (w *haltWatch) Tick(now sim.Cycle) {
	w.Core.Tick(now)
	if w.halt == 0 && w.halted {
		w.halt = now
	}
}

// fuzzBases are the base registers memory ops address through; no
// decoded instruction writes them, so every address stays aligned.
const fuzzBases = program.NumRegs - 2

// decodeFuzzProgram turns arbitrary bytes, four per instruction, into a
// well-formed program of at most 256 instructions plus a trailing halt:
// opcodes in range, positive moduli, branch targets inside the program
// (the halt included), and memory ops at 8-byte offsets from the base
// registers r14 and r15.
func decodeFuzzProgram(data []byte) *program.Program {
	n := min(len(data)/4, 256)
	if n == 0 {
		return nil
	}
	ins := make([]program.Instr, n, n+1)
	for i := range ins {
		b0, b1, b2, b3 := data[i*4], data[i*4+1], data[i*4+2], data[i*4+3]
		in := program.Instr{
			Op:     program.OpCode(b0) % (program.OpHalt + 1),
			Dst:    b1 % fuzzBases,
			A:      b2 % program.NumRegs,
			B:      b3 % program.NumRegs,
			C:      (b1 >> 4) % program.NumRegs,
			Imm:    int64(b2)%7 + 1, // positive: keeps OpMod well-formed
			Target: int(b3) % (n + 1),
		}
		if in.Op.IsMem() {
			in.A, in.Imm = fuzzBases+b2&1, int64(b2>>1&7)*8
		}
		ins[i] = in
	}
	return &program.Program{Name: "fuzz", Instrs: append(ins, program.Instr{Op: program.OpHalt})}
}

// fuzzRun is everything FuzzBatchedCore compares between core models.
type fuzzRun struct {
	regs       [program.NumRegs]int64
	pc         int
	instrs     int64
	calls      []string
	halt, done sim.Cycle
}

// runFuzzCore runs p on a scripted port under one engine × core mode,
// reporting false if it has not finished by the cycle limit.
func runFuzzCore(p *program.Program, script []byte, perCycle, batched bool) (fuzzRun, bool) {
	e := sim.NewEngine(1 << 14)
	e.SetPerCycle(perCycle)
	port := &fuzzPort{script: script, mem: map[uint64]uint64{}}
	e.Register(port)
	c := New(0, p, port, 2)
	c.SetBatched(batched)
	c.SetReg(fuzzBases, 0x1000)
	c.SetReg(fuzzBases+1, 0x2000)
	w := &haltWatch{Core: c}
	e.Register(w)
	done, err := e.Run()
	return fuzzRun{c.regs, c.pc, c.Instructions.Value(), port.calls, w.halt, done}, err == nil
}

// FuzzBatchedCore runs arbitrary programs on every engine × core mode
// against the unbatched core on the per-cycle engine, one instruction
// per cycle: registers, pc, instruction count, every port call with its
// cycle and answer, and the halt and done cycles must all agree. Runs
// crossing branches, runs retired in a completion, and the write
// buffer's drain wakes are all inside what it compares.
func FuzzBatchedCore(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 11, 2, 0, 0, 3, 3, 3, 0, 19, 0, 3, 1, 12, 0, 3, 2, 11, 6, 3, 0})   // li; loop: ld; addi; blt loop; st; ld
	f.Add([]byte{13, 4, 0, 2, 16, 0, 0, 0, 15, 5, 1, 4, 22, 0, 3, 0, 12, 0, 1, 5, 11, 6, 1, 0}) // rmw; fence; cas; nop; st; ld (forwarded)
	f.Add([]byte{0, 1, 20, 0, 3, 2, 2, 0, 5, 3, 2, 2, 19, 0, 2, 1, 11, 7, 0, 0})                // register loop, then ld
	// st; st; ld; addi; addi: the ld blocks the second store's drain,
	// and its completion must retry it on its own cycle, ahead of the run.
	f.Add([]byte{12, 127, 0, 0, 12, 0, 2, 0, 11, 6, 1, 0, 3, 3, 3, 0, 3, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		if p == nil {
			return
		}
		ref, ok := runFuzzCore(p, data, true, false)
		if !ok {
			return // no halt within the limit: nothing to compare
		}
		for _, m := range []struct{ perCycle, batched bool }{{true, true}, {false, false}, {false, true}} {
			got, ok := runFuzzCore(p, data, m.perCycle, m.batched)
			if !ok || fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("per-cycle=%v batched=%v diverged from the referee:\n got %+v\nwant %+v\nprogram %v",
					m.perCycle, m.batched, got, ref, p.Instrs)
			}
		}
	})
}
