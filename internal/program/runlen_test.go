package program

import (
	"testing"
)

// checkRunLenInvariants asserts the properties the batched core relies
// on, for every pc of p:
//
//  1. a run never extends past the end of the program;
//  2. only Batchable ops start a run (length > 0), and every run
//     instruction except possibly the last is Batchable;
//  3. the last instruction of a run is Batchable or a branch/jump —
//     a run never crosses (or contains) a load, store, atomic, fence,
//     pause or halt;
//  4. runs are maximal: a run not ending in a branch stops only at the
//     program end or at a non-batchable instruction.
func checkRunLenInvariants(t *testing.T, p *Program) {
	t.Helper()
	n := len(p.Instrs)
	for pc := 0; pc < n; pc++ {
		l := p.RunLen(pc)
		if l < 0 || pc+l > n {
			t.Fatalf("pc %d: run length %d exceeds program end %d", pc, l, n)
		}
		if l == 0 {
			if p.Instrs[pc].Op.Batchable() {
				t.Fatalf("pc %d: batchable op %v did not start a run", pc, p.Instrs[pc].Op)
			}
			continue
		}
		if !p.Instrs[pc].Op.Batchable() {
			t.Fatalf("pc %d: non-batchable op %v starts a run of %d", pc, p.Instrs[pc].Op, l)
		}
		for k := 0; k < l; k++ {
			op := p.Instrs[pc+k].Op
			if op.IsMem() || op == OpFence || op == OpNop || op == OpHalt {
				t.Fatalf("pc %d: run of %d crosses %v at +%d", pc, l, op, k)
			}
			if k < l-1 && !op.Batchable() {
				t.Fatalf("pc %d: run of %d has non-batchable %v at interior +%d", pc, l, op, k)
			}
		}
		last := p.Instrs[pc+l-1].Op
		if !last.Batchable() && !last.IsBranch() {
			t.Fatalf("pc %d: run of %d ends in %v", pc, l, last)
		}
		// Maximality: a run ending in a plain register op must have hit
		// the program end or a non-batchable, non-branch successor.
		if last.Batchable() && pc+l < n {
			next := p.Instrs[pc+l].Op
			if next.Batchable() || next.IsBranch() {
				t.Fatalf("pc %d: run of %d stopped early before %v", pc, l, next)
			}
		}
	}
}

func TestRunLenKnownShapes(t *testing.T) {
	b := NewBuilder("shapes")
	b.Li(1, 0x1000) // pc 0: run of 3 (li, li, addi)
	b.Li(2, 5)
	b.Addi(2, 2, 1)
	b.Ld(3, 1, 0) // pc 3: boundary
	b.Add(2, 2, 3)
	b.Label("loop") // pc 5
	b.Mul(2, 2, 2)
	b.Blt(2, 3, "loop") // folded into the run from pc 5
	b.St(1, 0, 2)
	b.Fence()
	b.Halt()
	p := b.MustBuild()
	checkRunLenInvariants(t, p)
	for pc, want := range map[int]int{
		0: 3, // li li addi
		1: 2,
		3: 0, // ld
		4: 3, // add, mul, blt
		5: 2, // mul, blt
		6: 0, // branch alone is not a run start
		7: 0, // st
		8: 0, // fence
		9: 0, // halt
	} {
		if got := p.RunLen(pc); got != want {
			t.Errorf("RunLen(%d) = %d, want %d", pc, got, want)
		}
	}
}

func TestRunLenLazyForHandBuiltPrograms(t *testing.T) {
	p := &Program{Name: "hand", Instrs: []Instr{
		{Op: OpLI, Dst: 1, Imm: 2},
		{Op: OpAdd, Dst: 1, A: 1, B: 1},
		{Op: OpHalt},
	}}
	if got := p.RunLen(0); got != 2 {
		t.Fatalf("RunLen(0) = %d, want 2", got)
	}
	checkRunLenInvariants(t, p)
}

// decodeFuzzProgram turns arbitrary bytes into a structurally plausible
// instruction stream (opcodes in range, registers masked, positive
// moduli, in-range branch targets). It deliberately does NOT force a
// trailing halt: RunLen must respect the block end on its own.
func decodeFuzzProgram(data []byte) *Program {
	if len(data) == 0 {
		return nil
	}
	n := len(data) / 4
	if n == 0 {
		return nil
	}
	if n > 256 {
		n = 256
	}
	ins := make([]Instr, n)
	for i := 0; i < n; i++ {
		b0, b1, b2, b3 := data[i*4], data[i*4+1], data[i*4+2], data[i*4+3]
		in := Instr{
			Op:  OpCode(b0) % numOpCodes,
			Dst: b1 % NumRegs,
			A:   b2 % NumRegs,
			B:   b3 % NumRegs,
			C:   (b1 >> 4) % NumRegs,
			Imm: int64(b2)%7 + 1, // positive: keeps OpMod well-formed
		}
		if in.Op.IsBranch() {
			in.Target = int(b3) % n
		}
		ins[i] = in
	}
	return &Program{Name: "fuzz", Instrs: ins}
}

// FuzzRunLens feeds arbitrary instruction streams to the run-length
// analysis and checks the batching invariants hold for every pc.
func FuzzRunLens(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 1, 2, 3, 11, 1, 2, 3, 17, 0, 0, 1})             // add, ld, beq
	f.Add([]byte{0, 1, 0, 0, 21, 0, 0, 0, 2, 1, 1, 2, 23, 0, 0, 0}) // li, jmp, add, halt
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		if p == nil {
			return
		}
		checkRunLenInvariants(t, p)
	})
}
