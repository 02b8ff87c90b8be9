package main

import (
	"math"
	"time"
)

// kind names one boundary at which the traced run records spans. Each
// kind belongs to one layer; a layer's self time is the sum over its
// kinds.
type kind int

const (
	kSimRun     kind = iota // root: the engine's Run (via Machine.Execute)
	kMeshTick               // engine -> mesh.Network.Tick
	kMeshSend               // controller -> coherence.Network.Send
	kL2Tick                 // engine -> L2 controller Tick
	kL2Deliver              // mesh -> L2 mesh.Endpoint.Deliver
	kL1Tick                 // engine -> L1 controller Tick
	kL1Deliver              // mesh -> L1 mesh.Endpoint.Deliver
	kL1Port                 // front end -> coherence.CorePort
	kCPUTick                // engine -> cpu.Core.Tick
	kReplayTick             // engine -> trace.ReplayCore.Tick
	kMem                    // L2 controller -> coherence.Memory
	numKinds
)

// frame is one open span.
type frame struct {
	k     kind
	start time.Duration // since tracer.base
	child time.Duration // total duration of the direct child spans closed so far
}

// tracer keeps the open spans on one stack (the simulator is single
// goroutine, so one stack is the whole call tree) and folds each span
// into per-kind totals when it closes: a run makes 10^7–10^8 spans, too
// many to keep individually. self is duration minus direct children, so
// the self times of all kinds sum to the root span's duration exactly.
type tracer struct {
	base  time.Time
	stack []frame

	self     [numKinds]time.Duration
	spans    [numKinds]int64
	children [numKinds]int64 // direct child spans opened under this kind

	// Counts taken at the same boundaries.
	portRejects int64 // CorePort calls that returned false (the front end retries)
	l2Sends     int64 // Network.Send calls whose source is an L2 tile
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stack: make([]frame, 0, 16)}
}

func (t *tracer) begin(k kind) {
	t.stack = append(t.stack, frame{k: k, start: time.Since(t.base)})
}

func (t *tracer) end() {
	now := time.Since(t.base)
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.self[f.k] += d - f.child
	t.spans[f.k]++
	if n > 0 {
		p := &t.stack[n-1]
		p.child += d
		t.children[p.k]++
	}
}

func (t *tracer) totalSpans() int64 {
	var n int64
	for _, c := range t.spans {
		n += c
	}
	return n
}

// spanCost is the host time one begin/end pair adds: inside lands
// between the span's own two clock reads (so in its own duration),
// outside lands in the parent's self time.
type spanCost struct{ inside, outside float64 } // ns

func (c spanCost) total() float64 { return c.inside + c.outside }

// calibrate measures spanCost on rounds × n empty spans, each round
// under its own root span, and keeps the cheapest round: a co-tenant
// burst during calibration would otherwise be subtracted from every
// span of every workload. The result is a lower bound on the cost inside
// a real run, where the tracer's state competes for cache with the
// simulator's.
func calibrate(rounds, n int) spanCost {
	best := spanCost{inside: math.Inf(1), outside: math.Inf(1)}
	for r := 0; r < rounds; r++ {
		t := newTracer()
		t.begin(kSimRun)
		for i := 0; i < n; i++ {
			t.begin(kMem)
			t.end()
		}
		t.end()
		best.inside = min(best.inside, float64(t.self[kMem])/float64(n))
		best.outside = min(best.outside, float64(t.self[kSimRun])/float64(n))
	}
	return best
}

// corrected is kind k's self time in ns with the calibrated tracer cost
// taken out: its own spans' inside part and its direct children's
// outside part. Clamped at zero for kinds whose spans are shorter than
// the calibration error.
func (t *tracer) corrected(k kind, c spanCost) float64 {
	d := float64(t.self[k]) - float64(t.spans[k])*c.inside - float64(t.children[k])*c.outside
	return max(d, 0)
}
