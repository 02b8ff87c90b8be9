// Package trace is the memory-trace subsystem: it captures the memory
// operation stream of a simulated run (via config.System.TraceOut),
// stores it in a compact varint-delta binary format, replays it through
// the coherence stack bit-identically (ReplayCore), and synthesizes
// parameterized access patterns (Zipf, Migratory, Scan) as traces.
//
// A trace is the complete data-side description of a run: per-core
// operation streams with compute-gap deltas, the initial memory image
// (required because CAS outcomes — and therefore cache-state
// transitions — depend on observed values), and a versioned header
// carrying the recording geometry and protocol. Replaying a trace on
// the configuration it was recorded under reproduces the original
// system.Result exactly; replaying it elsewhere (another protocol,
// another engine mode) is an elastic re-execution that preserves the
// per-core op order and inter-op compute gaps.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/config"
)

// Op is one trace operation as a value: what OpsBuilder.Append takes and
// Cursor.Next yields. Streams do not store Ops (see Ops). Gap and Instrs
// follow the
// config.TraceEvent contract: Gap is the cycle distance from the
// previous op's completion to this op's first issue attempt, Instrs the
// instructions retired since the previous op (this one included).
type Op struct {
	Kind   config.TraceOp
	Addr   uint64
	Val    uint64 // store value / RMW operand / CAS expected value
	Val2   uint64 // CAS swap value
	Gap    int64
	Instrs int64
}

// Stream is one core's operation sequence. A well-formed stream ends
// with exactly one TraceHalt record (and contains no other), so replay
// knows the cycle on which the core goes quiescent.
type Stream struct {
	Core int
	Ops  Ops
}

// MemWord is one word of the initial memory image.
type MemWord struct {
	Addr uint64
	Val  uint64
}

// Meta is the trace header: where the trace came from and the machine
// geometry it was recorded under. Sys carries only geometry fields —
// run-mode toggles (engine mode, batched core, TraceOut) are normalized
// to their zero values, since the captured stream is identical across
// all of them.
type Meta struct {
	Protocol string
	Workload string
	Seed     uint64
	Sys      config.System
}

// Trace is a trace file in memory.
type Trace struct {
	Meta    Meta
	InitMem []MemWord // sorted by strictly ascending address
	Streams []Stream  // sorted by strictly ascending core id
}

// Ops reports the total operation count across all streams (halt
// records included).
func (t *Trace) Ops() int {
	n := 0
	for _, s := range t.Streams {
		n += s.Ops.Len()
	}
	return n
}

// normalizeSys strips the run-mode fields a trace must not depend on.
func normalizeSys(sys config.System) config.System {
	sys.PerCycleEngine = false
	sys.BatchedCore = false
	sys.TraceOut = nil
	return sys
}

// checkCores refuses a header core count outside [1, config.MaxCores].
func checkCores(cores int) error {
	if cores <= 0 {
		return formatErr("cores", "header cores must be positive, got %d", cores)
	}
	if cores > config.MaxCores {
		return formatErr("cores", "header cores %d exceed the supported maximum of %d", cores, config.MaxCores)
	}
	return nil
}

// Validate checks the structure that spans streams: header cores, init
// memory order and alignment, stream order and core range, no empty
// stream. What is inside a stream — op fields, halt placement — was
// checked when its Ops was built or decoded and cannot be broken since,
// so this is O(streams + init words). Both the encoder and the decoder
// run it, so a malformed trace can neither be written nor replayed.
func (t *Trace) Validate() error {
	if err := checkCores(t.Meta.Sys.Cores); err != nil {
		return err
	}
	for i, w := range t.InitMem {
		if w.Addr%8 != 0 {
			return formatErr("initmem", "init word %d at %#x not 8-aligned", i, w.Addr)
		}
		if i > 0 && w.Addr <= t.InitMem[i-1].Addr {
			return formatErr("initmem", "init memory not strictly ascending at %d (%#x after %#x)",
				i, w.Addr, t.InitMem[i-1].Addr)
		}
	}
	for i, s := range t.Streams {
		if s.Core < 0 || s.Core >= t.Meta.Sys.Cores {
			return formatErr("core", "stream %d core %d outside [0,%d)", i, s.Core, t.Meta.Sys.Cores)
		}
		if i > 0 && s.Core <= t.Streams[i-1].Core {
			return formatErr("core", "streams not strictly ascending at %d (core %d after %d)",
				i, s.Core, t.Streams[i-1].Core)
		}
		if s.Ops.Len() == 0 {
			return formatErr("ops", "core %d stream is empty", s.Core)
		}
	}
	return nil
}

// Recorder is the config.TraceSink that accumulates capture events into
// per-core streams. It is single-goroutine (the simulation loop) and
// assembles a Trace once the run completes. Events go straight into
// wire form, so a long capture holds a few bytes per retired memory op.
type Recorder struct {
	meta    Meta
	initMem []MemWord
	streams []OpsBuilder // indexed by core id
	err     error        // first event a builder refused
}

// NewRecorder returns a recorder for a machine with cfg's geometry
// running protocol on workload.
func NewRecorder(cfg config.System, protocol, workload string, seed uint64) *Recorder {
	return &Recorder{
		meta:    Meta{Protocol: protocol, Workload: workload, Seed: seed, Sys: normalizeSys(cfg)},
		streams: make([]OpsBuilder, cfg.Cores),
	}
}

// RecordOp implements config.TraceSink. A malformed event is reported
// by Trace, not here: the sink interface has no error path.
func (r *Recorder) RecordOp(ev config.TraceEvent) {
	if ev.Core < 0 || ev.Core >= len(r.streams) {
		panic(fmt.Sprintf("trace: recorded event for core %d outside geometry (%d cores)",
			ev.Core, len(r.streams)))
	}
	err := r.streams[ev.Core].Append(Op{
		Kind: ev.Op, Addr: ev.Addr, Val: ev.Val, Val2: ev.Val2,
		Gap: ev.Gap, Instrs: ev.Instrs,
	})
	if err != nil && r.err == nil {
		r.err = inCore(ev.Core, err)
	}
}

// SetInitMem captures the workload's initial memory image (sorted into
// the canonical encoding order).
func (r *Recorder) SetInitMem(mem map[uint64]uint64) {
	r.initMem = r.initMem[:0]
	for a, v := range mem {
		r.initMem = append(r.initMem, MemWord{Addr: a, Val: v})
	}
	sort.Slice(r.initMem, func(i, j int) bool { return r.initMem[i].Addr < r.initMem[j].Addr })
}

// Trace assembles the recorded streams into a validated Trace.
func (r *Recorder) Trace() (*Trace, error) {
	malformed := func(err error) (*Trace, error) {
		return nil, fmt.Errorf("recorded run produced a malformed trace (incomplete run?): %w", err)
	}
	if r.err != nil {
		return malformed(r.err)
	}
	t := &Trace{Meta: r.meta, InitMem: r.initMem}
	for core := range r.streams {
		b := &r.streams[core]
		if b.Len() == 0 {
			continue // idle core (no program loaded)
		}
		ops, err := b.Finish()
		if err != nil {
			return malformed(inCore(core, err))
		}
		t.Streams = append(t.Streams, Stream{Core: core, Ops: ops})
	}
	if err := t.Validate(); err != nil {
		return malformed(err)
	}
	return t, nil
}
