package program

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	p, err := NewBuilder("demo").
		Li(1, 42).
		Addi(2, 1, 8).
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.Instrs[0].Op != OpLI || p.Instrs[0].Imm != 42 {
		t.Fatalf("first instr %+v", p.Instrs[0])
	}
}

func TestForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder("labels")
	b.Li(1, 0)
	b.Label("top")
	b.Addi(1, 1, 1)
	b.Li(2, 3)
	b.Blt(1, 2, "top") // backward
	b.Beq(1, 2, "end") // forward
	b.Li(3, 99)
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Backward branch targets instruction index 1.
	if p.Instrs[3].Target != 1 {
		t.Fatalf("backward target = %d", p.Instrs[3].Target)
	}
	if p.Instrs[4].Target != 6 {
		t.Fatalf("forward target = %d", p.Instrs[4].Target)
	}
}

func TestUndefinedLabel(t *testing.T) {
	_, err := NewBuilder("bad").Jmp("nowhere").Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x").Li(1, 1).Label("x").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate label error")
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"empty", &Program{Name: "e"}},
		{"no-halt", &Program{Name: "nh", Instrs: []Instr{{Op: OpLI}}}},
		{"bad-target", &Program{Name: "bt", Instrs: []Instr{
			{Op: OpJmp, Target: 5}, {Op: OpHalt}}}},
		{"bad-reg", &Program{Name: "br", Instrs: []Instr{
			{Op: OpLI, Dst: 16}, {Op: OpHalt}}}},
		{"bad-mod", &Program{Name: "bm", Instrs: []Instr{
			{Op: OpMod, Imm: 0}, {Op: OpHalt}}}},
		{"bad-op", &Program{Name: "bo", Instrs: []Instr{
			{Op: numOpCodes}, {Op: OpHalt}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", c.name)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("p").Jmp("missing").MustBuild()
}

func TestOpcodeClassification(t *testing.T) {
	memOps := []OpCode{OpLd, OpSt, OpRmwAdd, OpRmwXchg, OpCas}
	for _, op := range memOps {
		if !op.IsMem() {
			t.Fatalf("%v should be a memory op", op)
		}
	}
	atomics := []OpCode{OpRmwAdd, OpRmwXchg, OpCas}
	for _, op := range atomics {
		if !op.IsAtomic() {
			t.Fatalf("%v should be atomic", op)
		}
	}
	if OpLd.IsAtomic() || OpAdd.IsMem() || OpFence.IsMem() {
		t.Fatal("misclassified opcode")
	}
}

func TestInstrStrings(t *testing.T) {
	b := NewBuilder("strs")
	b.Li(1, 5).Ld(2, 1, 8).St(1, 0, 2).Beq(1, 2, "end").Label("end").Halt()
	p := b.MustBuild()
	for _, in := range p.Instrs {
		if in.String() == "" {
			t.Fatalf("empty rendering for %v", in.Op)
		}
	}
	if s := p.Instrs[1].String(); !strings.Contains(s, "ld r2, [r1+8]") {
		t.Fatalf("load rendering: %s", s)
	}
}

func TestSpinUntilEqStructure(t *testing.T) {
	b := NewBuilder("spin")
	b.Li(1, 0x100).Li(2, 1)
	b.SpinUntilEq(3, 1, 0, 2)
	b.Halt()
	p := b.MustBuild()
	// The spin is a load followed by a bne back to the load.
	var loads, branches int
	for _, in := range p.Instrs {
		switch in.Op {
		case OpLd:
			loads++
		case OpBne:
			branches++
			if p.Instrs[in.Target].Op != OpLd {
				t.Fatal("spin branch must target the polling load")
			}
		}
	}
	if loads != 1 || branches != 1 {
		t.Fatalf("loads=%d branches=%d", loads, branches)
	}
}

func TestLockIdiomsBuild(t *testing.T) {
	b := NewBuilder("lock")
	b.Li(10, 0x1000)
	b.LockAcquire(8, 9, 10, 0)
	b.LockRelease(10, 0)
	b.Halt()
	p := b.MustBuild()
	var xchgs int
	for _, in := range p.Instrs {
		if in.Op == OpRmwXchg {
			xchgs++
		}
	}
	if xchgs != 1 {
		t.Fatalf("lock should use exactly one xchg, got %d", xchgs)
	}
}

func TestBarrierBuilds(t *testing.T) {
	b := NewBuilder("bar")
	b.Li(10, 0x2000)
	b.Barrier(10, 14, 12, 13, 4)
	b.Halt()
	p := b.MustBuild()
	var rmws int
	for _, in := range p.Instrs {
		if in.Op == OpRmwAdd {
			rmws++
		}
	}
	if rmws != 1 {
		t.Fatalf("barrier should use one fetch-add, got %d", rmws)
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := &Workload{
		Name:     "w",
		Programs: []*Program{NewBuilder("t0").Halt().MustBuild()},
		InitMem:  map[uint64]uint64{0x1000: 5},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Threads() != 1 {
		t.Fatalf("threads = %d", good.Threads())
	}

	empty := &Workload{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Fatal("expected error for empty workload")
	}
	misaligned := &Workload{
		Name:     "m",
		Programs: good.Programs,
		InitMem:  map[uint64]uint64{0x1001: 1},
	}
	if err := misaligned.Validate(); err == nil {
		t.Fatal("expected error for misaligned init")
	}
}

func TestWorkloadNilProgramsAreIdleCores(t *testing.T) {
	w := &Workload{
		Name:     "sparse",
		Programs: []*Program{nil, NewBuilder("t1").Halt().MustBuild(), nil},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Threads() != 1 {
		t.Fatalf("threads = %d, want 1", w.Threads())
	}
}

// TestRandomStraightLineProgramsValidate builds random branch-free
// programs and checks they always validate.
func TestRandomStraightLineProgramsValidate(t *testing.T) {
	check := func(ops []uint8) bool {
		b := NewBuilder("rand")
		for _, o := range ops {
			switch o % 6 {
			case 0:
				b.Li(uint8(o%NumRegs), int64(o))
			case 1:
				b.Addi(uint8(o%NumRegs), uint8((o+1)%NumRegs), 1)
			case 2:
				b.Ld(uint8(o%NumRegs), uint8((o+2)%NumRegs), int64(o&^7))
			case 3:
				b.St(uint8(o%NumRegs), int64(o&^7), uint8((o+3)%NumRegs))
			case 4:
				b.Nop(int64(o%10) + 1)
			case 5:
				b.Fence()
			}
		}
		b.Halt()
		p, err := b.Build()
		return err == nil && p.Validate() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// IsAtomic reports whether the opcode is an atomic read-modify-write.
func (op OpCode) IsAtomic() bool {
	switch op {
	case OpRmwAdd, OpRmwXchg, OpCas:
		return true
	}
	return false
}
