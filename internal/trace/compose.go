package trace

import (
	"fmt"
	"strings"
)

// Compose splices recorded (or synthesized) traces onto a larger
// machine: instances of the source traces are tiled across the target
// core count, each instance's streams re-homed onto the next contiguous
// core group and its address space shifted by a per-instance stride so
// instances never share data. The result is a validated, replayable
// trace with the target geometry — the mechanism behind the 64-, 128-
// and 256-core scaling workloads, which re-use small recorded runs
// instead of re-recording hundreds of cores.
//
// Placement is deterministic: instances cycle through parts in argument
// order (part 0, part 1, ..., part 0, ...), each occupying its recorded
// geometry's worth of cores, until no further instance fits; leftover
// cores stay idle (a trace need not carry a stream for every core).
// Sharing still crosses the whole mesh — the address stride moves data
// between L2 home tiles, so instance i's traffic traverses links far
// from its own core group.
//
// The stride is the smallest power of two strictly greater than every
// part's highest touched address, so instance address spaces are
// disjoint and the composed InitMem stays strictly ascending. Values
// (store payloads, CAS operands) are not rewritten: composition assumes
// data values are not reused as pointers, which holds for every
// workload and synthesizer in this repository.
//
// Nothing is decoded or re-encoded: a stream's addresses are delta-coded
// from 0, so shifting them all changes one record (Ops.rehomed) and the
// rest of the stream is a byte copy. Composing costs one copy of each
// placed stream — the composed trace's own size — and the first
// instance, at offset 0, shares its part's bytes outright.
func Compose(cores int, parts ...*Trace) (*Trace, error) {
	// Refuse the target before tiling: the tiling loop allocates in
	// proportion to it.
	if err := checkCores(cores); err != nil {
		return nil, fmt.Errorf("trace: compose target invalid: %w", err)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("trace: compose needs at least one part")
	}
	var span uint64
	names := make([]string, 0, len(parts))
	for i, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("trace: compose part %d invalid: %w", i, err)
		}
		if s := p.addrSpan(); s > span {
			span = s
		}
		names = append(names, p.Meta.Workload)
	}
	stride := uint64(1)
	for stride <= span {
		stride <<= 1
	}

	out := &Trace{Meta: parts[0].Meta}
	out.Meta.Sys.Cores = cores
	out.Meta.Sys.MeshRows = 0 // let the mesh pick its own factorization
	out.Meta.Workload = fmt.Sprintf("compose[%s]x%d", strings.Join(names, "+"), cores)

	base, inst := 0, 0
	for {
		p := parts[inst%len(parts)]
		pc := p.Meta.Sys.Cores
		if base+pc > cores {
			break
		}
		off := stride * uint64(inst)
		for _, s := range p.Streams {
			out.Streams = append(out.Streams, Stream{Core: base + s.Core, Ops: s.Ops.rehomed(off)})
		}
		for _, w := range p.InitMem {
			out.InitMem = append(out.InitMem, MemWord{Addr: w.Addr + off, Val: w.Val})
		}
		base += pc
		inst++
	}
	if inst == 0 {
		return nil, fmt.Errorf("trace: compose target of %d cores cannot fit one instance of %q (%d cores)",
			cores, parts[0].Meta.Workload, parts[0].Meta.Sys.Cores)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("trace: composed trace invalid: %w", err)
	}
	return out, nil
}

// addrSpan reports one past the highest address the trace touches
// (streams and initial memory).
func (t *Trace) addrSpan() uint64 {
	var hi uint64
	for _, s := range t.Streams {
		if s.Ops.span > hi {
			hi = s.Ops.span
		}
	}
	for _, w := range t.InitMem {
		if w.Addr >= hi {
			hi = w.Addr + 8
		}
	}
	return hi
}
