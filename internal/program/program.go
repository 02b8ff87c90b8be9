// Package program defines the mini thread ISA that simulated cores
// execute. It is a small register machine with loads, stores, atomic
// read-modify-writes, fences and branches — exactly the memory-event
// vocabulary a TSO coherence protocol observes — plus a builder for
// writing synchronization idioms (spinlocks, barriers, flag handshakes)
// the way the paper's benchmarks do.
package program

import "fmt"

// NumRegs is the architectural register count per thread.
const NumRegs = 16

// OpCode enumerates instruction kinds.
type OpCode uint8

// Instruction set. Memory operands are 8-byte words; addresses are
// computed as R[A]+Imm.
const (
	OpLI   OpCode = iota // R[Dst] = Imm
	OpMov                // R[Dst] = R[A]
	OpAdd                // R[Dst] = R[A] + R[B]
	OpAddi               // R[Dst] = R[A] + Imm
	OpSub                // R[Dst] = R[A] - R[B]
	OpMul                // R[Dst] = R[A] * R[B]
	OpAnd                // R[Dst] = R[A] & R[B]
	OpOr                 // R[Dst] = R[A] | R[B]
	OpXor                // R[Dst] = R[A] ^ R[B]
	OpMod                // R[Dst] = R[A] mod Imm (Imm > 0)
	OpShl                // R[Dst] = R[A] << Imm

	OpLd      // R[Dst] = Mem[R[A]+Imm]
	OpSt      // Mem[R[A]+Imm] = R[B]
	OpRmwAdd  // atomic: R[Dst] = Mem[R[A]+Imm]; Mem[...] += R[B]
	OpRmwXchg // atomic: R[Dst] = Mem[R[A]+Imm]; Mem[...] = R[B]
	OpCas     // atomic: R[Dst] = old; if old == R[B] { Mem[R[A]+Imm] = R[C] }
	OpFence   // full memory barrier (drains the write buffer)

	OpBeq // if R[A] == R[B] jump Target
	OpBne // if R[A] != R[B] jump Target
	OpBlt // if R[A] <  R[B] jump Target
	OpBge // if R[A] >= R[B] jump Target
	OpJmp // jump Target
	OpNop // stall for Imm cycles (models compute)
	OpHalt

	numOpCodes
)

var opNames = [numOpCodes]string{
	"li", "mov", "add", "addi", "sub", "mul", "and", "or", "xor", "mod", "shl",
	"ld", "st", "rmwadd", "rmwxchg", "cas", "fence",
	"beq", "bne", "blt", "bge", "jmp", "nop", "halt",
}

func (op OpCode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsMem reports whether the opcode accesses memory.
func (op OpCode) IsMem() bool {
	switch op {
	case OpLd, OpSt, OpRmwAdd, OpRmwXchg, OpCas:
		return true
	}
	return false
}

// Instr is one decoded instruction.
type Instr struct {
	Op      OpCode
	Dst     uint8
	A, B, C uint8
	Imm     int64
	Target  int
}

func (in Instr) String() string {
	switch in.Op {
	case OpLI:
		return fmt.Sprintf("li r%d, %d", in.Dst, in.Imm)
	case OpLd:
		return fmt.Sprintf("ld r%d, [r%d+%d]", in.Dst, in.A, in.Imm)
	case OpSt:
		return fmt.Sprintf("st [r%d+%d], r%d", in.A, in.Imm, in.B)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.A, in.B, in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	default:
		return fmt.Sprintf("%s d=%d a=%d b=%d c=%d imm=%d", in.Op, in.Dst, in.A, in.B, in.C, in.Imm)
	}
}

// Program is an executable instruction sequence for one thread.
type Program struct {
	Name   string
	Instrs []Instr
}

// Len reports the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Validate checks structural well-formedness (register indices, branch
// targets, halting).
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	for i, in := range p.Instrs {
		if in.Op >= numOpCodes {
			return fmt.Errorf("program %q @%d: bad opcode %d", p.Name, i, in.Op)
		}
		for _, r := range []uint8{in.Dst, in.A, in.B, in.C} {
			if r >= NumRegs {
				return fmt.Errorf("program %q @%d: register r%d out of range", p.Name, i, r)
			}
		}
		switch in.Op {
		case OpBeq, OpBne, OpBlt, OpBge, OpJmp:
			if in.Target < 0 || in.Target >= len(p.Instrs) {
				return fmt.Errorf("program %q @%d: branch target %d out of range", p.Name, i, in.Target)
			}
		case OpMod:
			if in.Imm <= 0 {
				return fmt.Errorf("program %q @%d: mod with non-positive modulus", p.Name, i)
			}
		}
	}
	last := p.Instrs[len(p.Instrs)-1]
	if last.Op != OpHalt && last.Op != OpJmp {
		return fmt.Errorf("program %q: does not end in halt or jmp", p.Name)
	}
	return nil
}
