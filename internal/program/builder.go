package program

import "fmt"

// Builder assembles a Program with symbolic labels. Branches may
// reference labels defined later; they are resolved by Build.
type Builder struct {
	name   string
	instrs []Instr
	labels map[string]int
	fixups []fixup
	errs   []error
}

type fixup struct {
	pc    int
	label string
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

func (b *Builder) emit(in Instr) *Builder {
	b.instrs = append(b.instrs, in)
	return b
}

// Label marks the next instruction's address with the given name.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
	return b
}

// Li loads an immediate: R[dst] = imm.
func (b *Builder) Li(dst uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpLI, Dst: dst, Imm: imm})
}

// Mov copies a register.
func (b *Builder) Mov(dst, src uint8) *Builder {
	return b.emit(Instr{Op: OpMov, Dst: dst, A: src})
}

// Add computes R[dst] = R[a] + R[c2].
func (b *Builder) Add(dst, a, c2 uint8) *Builder {
	return b.emit(Instr{Op: OpAdd, Dst: dst, A: a, B: c2})
}

// Addi computes R[dst] = R[a] + imm.
func (b *Builder) Addi(dst, a uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpAddi, Dst: dst, A: a, Imm: imm})
}

// Sub computes R[dst] = R[a] - R[c2].
func (b *Builder) Sub(dst, a, c2 uint8) *Builder {
	return b.emit(Instr{Op: OpSub, Dst: dst, A: a, B: c2})
}

// Mul computes R[dst] = R[a] * R[c2].
func (b *Builder) Mul(dst, a, c2 uint8) *Builder {
	return b.emit(Instr{Op: OpMul, Dst: dst, A: a, B: c2})
}

// And computes R[dst] = R[a] & R[c2].
func (b *Builder) And(dst, a, c2 uint8) *Builder {
	return b.emit(Instr{Op: OpAnd, Dst: dst, A: a, B: c2})
}

// Or computes R[dst] = R[a] | R[c2].
func (b *Builder) Or(dst, a, c2 uint8) *Builder {
	return b.emit(Instr{Op: OpOr, Dst: dst, A: a, B: c2})
}

// Xor computes R[dst] = R[a] ^ R[c2].
func (b *Builder) Xor(dst, a, c2 uint8) *Builder {
	return b.emit(Instr{Op: OpXor, Dst: dst, A: a, B: c2})
}

// Mod computes R[dst] = R[a] mod imm.
func (b *Builder) Mod(dst, a uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpMod, Dst: dst, A: a, Imm: imm})
}

// Shl computes R[dst] = R[a] << imm.
func (b *Builder) Shl(dst, a uint8, imm int64) *Builder {
	return b.emit(Instr{Op: OpShl, Dst: dst, A: a, Imm: imm})
}

// Ld loads R[dst] = Mem[R[base]+off].
func (b *Builder) Ld(dst, base uint8, off int64) *Builder {
	return b.emit(Instr{Op: OpLd, Dst: dst, A: base, Imm: off})
}

// St stores Mem[R[base]+off] = R[val].
func (b *Builder) St(base uint8, off int64, val uint8) *Builder {
	return b.emit(Instr{Op: OpSt, A: base, Imm: off, B: val})
}

// RmwAdd performs R[dst] = fetch-and-add(Mem[R[base]+off], R[val]).
func (b *Builder) RmwAdd(dst, base uint8, off int64, val uint8) *Builder {
	return b.emit(Instr{Op: OpRmwAdd, Dst: dst, A: base, Imm: off, B: val})
}

// RmwXchg performs R[dst] = exchange(Mem[R[base]+off], R[val]).
func (b *Builder) RmwXchg(dst, base uint8, off int64, val uint8) *Builder {
	return b.emit(Instr{Op: OpRmwXchg, Dst: dst, A: base, Imm: off, B: val})
}

// Cas performs R[dst] = old; if old == R[expect] then Mem[..] = R[next].
func (b *Builder) Cas(dst, base uint8, off int64, expect, next uint8) *Builder {
	return b.emit(Instr{Op: OpCas, Dst: dst, A: base, Imm: off, B: expect, C: next})
}

// Fence emits a full memory barrier.
func (b *Builder) Fence() *Builder { return b.emit(Instr{Op: OpFence}) }

// Beq branches to label when R[a] == R[c2].
func (b *Builder) Beq(a, c2 uint8, label string) *Builder { return b.branch(OpBeq, a, c2, label) }

// Bne branches to label when R[a] != R[c2].
func (b *Builder) Bne(a, c2 uint8, label string) *Builder { return b.branch(OpBne, a, c2, label) }

// Blt branches to label when R[a] < R[c2].
func (b *Builder) Blt(a, c2 uint8, label string) *Builder { return b.branch(OpBlt, a, c2, label) }

// Bge branches to label when R[a] >= R[c2].
func (b *Builder) Bge(a, c2 uint8, label string) *Builder { return b.branch(OpBge, a, c2, label) }

// Jmp jumps unconditionally to label.
func (b *Builder) Jmp(label string) *Builder { return b.branch(OpJmp, 0, 0, label) }

func (b *Builder) branch(op OpCode, a, c2 uint8, label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: len(b.instrs), label: label})
	return b.emit(Instr{Op: op, A: a, B: c2, Target: -1})
}

// Nop stalls for cycles cycles, modelling local compute.
func (b *Builder) Nop(cycles int64) *Builder {
	if cycles < 1 {
		cycles = 1
	}
	return b.emit(Instr{Op: OpNop, Imm: cycles})
}

// Halt terminates the thread.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: OpHalt}) }

// Build resolves labels and validates the program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("undefined label %q", f.label))
			continue
		}
		b.instrs[f.pc].Target = pc
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("program %q: %v", b.name, b.errs[0])
	}
	p := &Program{Name: b.name, Instrs: b.instrs}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on error; for statically known-good
// workload construction.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// ---- Synchronization idioms ----
// These emit the exact instruction patterns the paper's workloads use:
// polling acquires, release stores, test-and-test-and-set locks,
// sense-reversing barriers.

// SpinUntilEq loads Mem[R[base]+off] into R[tmp] in a polling loop until
// it equals R[want] — the canonical TSO acquire (Figure 1's b1).
func (b *Builder) SpinUntilEq(tmp, base uint8, off int64, want uint8) *Builder {
	l := fmt.Sprintf(".spin%d", len(b.instrs))
	b.Label(l)
	b.Ld(tmp, base, off)
	b.Bne(tmp, want, l)
	return b
}

// LockAcquire implements a test-and-test-and-set spinlock on
// Mem[R[base]+off] using registers tmp and one.
func (b *Builder) LockAcquire(tmp, one, base uint8, off int64) *Builder {
	retry := fmt.Sprintf(".lock%d", len(b.instrs))
	gotIt := fmt.Sprintf(".lockok%d", len(b.instrs))
	b.Li(one, 1)
	b.Li(regZeroScratch, 0)
	b.Label(retry)
	// Test: spin on a plain load while the lock is held.
	b.Ld(tmp, base, off)
	b.Bne(tmp, regZeroScratch, retry)
	// Test-and-set.
	b.RmwXchg(tmp, base, off, one)
	b.Beq(tmp, regZeroScratch, gotIt)
	b.Jmp(retry)
	b.Label(gotIt)
	return b
}

// regZeroScratch is the register conventionally holding zero for lock
// idioms; callers must initialize it with Li(15, 0).
const regZeroScratch = 15

// LockRelease releases the spinlock (a plain store, TSO release).
func (b *Builder) LockRelease(base uint8, off int64) *Builder {
	return b.St(base, off, regZeroScratch)
}

// LockAcquirePause is LockAcquire with a backoff pause after each failed
// probe — the x86 PAUSE hint every production spinlock issues in its
// spin body. Contending cores go quiet for pauseCycles between probes,
// which both models real hardware and exposes idle time the
// event-driven engine can skip.
func (b *Builder) LockAcquirePause(tmp, one, base uint8, off, pauseCycles int64) *Builder {
	id := len(b.instrs)
	retry := fmt.Sprintf(".lockp%d", id)
	test := fmt.Sprintf(".lockptest%d", id)
	gotIt := fmt.Sprintf(".lockpok%d", id)
	b.Li(one, 1)
	b.Li(regZeroScratch, 0)
	b.Jmp(test)
	b.Label(retry)
	b.Nop(pauseCycles)
	b.Label(test)
	// Test: spin on a plain load while the lock is held.
	b.Ld(tmp, base, off)
	b.Bne(tmp, regZeroScratch, retry)
	// Test-and-set.
	b.RmwXchg(tmp, base, off, one)
	b.Beq(tmp, regZeroScratch, gotIt)
	b.Jmp(retry)
	b.Label(gotIt)
	return b
}

// Barrier implements a sense-reversing centralized barrier.
// barrierBase points at two words: [count, sense]. senseReg must hold the
// thread's current sense (flipped by this call); nthreads is total
// participants. tmp1/tmp2 are scratch.
func (b *Builder) Barrier(barrierBase uint8, senseReg, tmp1, tmp2 uint8, nthreads int64) *Builder {
	id := len(b.instrs)
	wait := fmt.Sprintf(".barwait%d", id)
	done := fmt.Sprintf(".bardone%d", id)
	// Flip local sense.
	b.Li(tmp1, 1)
	b.Xor(senseReg, senseReg, tmp1)
	// arrived = fetch_add(count, 1) + 1
	b.Li(tmp2, 1)
	b.RmwAdd(tmp1, barrierBase, 0, tmp2)
	b.Addi(tmp1, tmp1, 1)
	b.Li(tmp2, nthreads)
	b.Bne(tmp1, tmp2, wait)
	// Last arrival: reset count, publish sense.
	b.Li(tmp1, 0)
	b.St(barrierBase, 0, tmp1)
	b.St(barrierBase, 8, senseReg)
	b.Jmp(done)
	b.Label(wait)
	b.Ld(tmp1, barrierBase, 8)
	b.Bne(tmp1, senseReg, wait)
	b.Label(done)
	// Restore tmp2 = 1 for the next barrier call.
	b.Li(tmp2, 1)
	return b
}
