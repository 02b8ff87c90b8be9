package trace

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/program"
)

// Workload converts the trace into an equivalent program-based
// workload: each stream becomes a straight-line program of address
// materializations, memory operations and pauses. This makes traces —
// synthetic ones especially — name-resolvable workloads runnable by
// every existing harness and CLI path, on any protocol and core count
// that fits.
//
// The conversion approximates timing rather than reproducing it: the
// materializing li instructions cost cycles the original gap did not
// include, so each op's pause is shortened by the op's own emitted
// instruction count. Bit-identical replay is ReplayCore's job; the
// program form trades a few cycles of fidelity for universal
// compatibility.
func (t *Trace) Workload() *program.Workload {
	maxCore := 0
	for _, s := range t.Streams {
		if s.Core > maxCore {
			maxCore = s.Core
		}
	}
	byCore := make([]*program.Program, maxCore+1)
	for _, s := range t.Streams {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", t.Meta.Workload, s.Core))
		c := s.Ops.Cursor()
		for op, ok := c.Next(); ok; op, ok = c.Next() {
			emitted := opProgramLen(op.Kind)
			if pad := op.Gap - emitted; pad > 0 {
				b.Nop(pad)
			}
			switch op.Kind {
			case config.TraceLoad:
				b.Li(1, int64(op.Addr))
				b.Ld(2, 1, 0)
			case config.TraceStore:
				b.Li(1, int64(op.Addr))
				b.Li(3, int64(op.Val))
				b.St(1, 0, 3)
			case config.TraceRMWAdd:
				b.Li(1, int64(op.Addr))
				b.Li(3, int64(op.Val))
				b.RmwAdd(2, 1, 0, 3)
			case config.TraceRMWXchg:
				b.Li(1, int64(op.Addr))
				b.Li(3, int64(op.Val))
				b.RmwXchg(2, 1, 0, 3)
			case config.TraceCAS:
				b.Li(1, int64(op.Addr))
				b.Li(3, int64(op.Val))
				b.Li(4, int64(op.Val2))
				b.Cas(2, 1, 0, 3, 4)
			case config.TraceFence:
				b.Fence()
			case config.TraceHalt:
				b.Halt()
			}
		}
		byCore[s.Core] = b.MustBuild()
	}

	var initMem map[uint64]uint64
	if len(t.InitMem) > 0 {
		initMem = make(map[uint64]uint64, len(t.InitMem))
		for _, w := range t.InitMem {
			initMem[w.Addr] = w.Val
		}
	}
	return &program.Workload{Name: t.Meta.Workload, Programs: byCore, InitMem: initMem}
}

// opProgramLen is the instruction count Workload emits for an op,
// subtracted from the op's gap so converted programs keep roughly the
// recorded pacing.
func opProgramLen(kind config.TraceOp) int64 {
	switch kind {
	case config.TraceLoad:
		return 2
	case config.TraceStore, config.TraceRMWAdd, config.TraceRMWXchg:
		return 3
	case config.TraceCAS:
		return 4
	default: // fence, halt
		return 1
	}
}
