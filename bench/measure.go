package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/system"
)

// fingerprint is the simulated outcome of a run. Every rep of a
// workload, traced or not, must produce the same one.
type fingerprint struct {
	Cycles, Instrs, Msgs, FlitHops, L1Misses, SelfInv int64
}

// run is everything one execution of a workload yields.
type run struct {
	in                     inputCost
	buildTime, prewarmTime time.Duration
	wall                   time.Duration // Machine.Execute only
	fp                     fingerprint
	l1Accesses             int64
	memReads, memWrites    int64
	idleSkipped            int64
	heapBytes              uint64 // HeapAlloc after the run and a forced GC, machine still referenced
	allocBytes, mallocs    uint64 // during Execute
	gcCycles               uint32
	gcPause                time.Duration
	tracer                 *tracer
	overall                time.Duration // generation through checks
}

func (r run) setup() time.Duration { return r.in.total() + r.buildTime + r.prewarmTime }

// execute performs one closed-loop run: generate the input, build a
// fresh machine (modelled caches empty), prewarm host-side storage, then
// time Execute alone. t selects the traced wiring; shards > 1 the
// sharded engine. Any failed check is returned as an error and counts as
// a failed run.
func (s spec) execute(seed uint64, t *tracer, shards int) (run, error) {
	// Every set-up is measured cold, as the first one in a fresh process
	// is: without this a later run's Prewarm reuses heap pages an earlier
	// machine already faulted in and reads several times faster.
	debug.FreeOSMemory()
	start := time.Now()
	in, cost, err := s.generate(seed)
	if err != nil {
		return run{}, err
	}
	r := run{in: cost, tracer: t}
	t0 := time.Now()
	var m *system.Machine
	if t != nil {
		m, err = s.buildTraced(in, t)
	} else {
		m, err = s.build(in, shards)
	}
	if err != nil {
		return run{}, fmt.Errorf("%s: build: %w", s.name, err)
	}
	t1 := time.Now()
	m.Prewarm()
	r.buildTime, r.prewarmTime = t1.Sub(t0), time.Since(t1)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if t != nil {
		t.base = time.Now()
		t.begin(kSimRun)
	}
	t2 := time.Now()
	cycles, err := m.Execute()
	r.wall = time.Since(t2)
	if t != nil {
		t.end()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return run{}, fmt.Errorf("%s: %w", s.name, err)
	}
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)

	// Result collection mirrors system.Machine.collect, reading only
	// exported state so the same code serves both wirings.
	r.fp.Cycles = int64(cycles)
	msgs, _, hops, _, _ := m.Net.Totals()
	r.fp.Msgs, r.fp.FlitHops = msgs, hops
	for _, l1 := range m.L1s {
		st := l1.L1Stats()
		r.fp.L1Misses += st.Misses()
		r.fp.SelfInv += st.SelfInvTotal()
		r.l1Accesses += st.Accesses()
	}
	for _, f := range m.Fronts {
		_, _, _, _, instrs := f.Counts()
		r.fp.Instrs += instrs
	}
	r.memReads, r.memWrites = m.Mem.Stats()
	if m.Engine != nil {
		r.idleSkipped = m.Engine.IdleSkipped
	}

	if in.w != nil && in.w.Check != nil {
		if err := in.w.Check(m.Reader()); err != nil {
			return run{}, fmt.Errorf("%s: functional check: %w", s.name, err)
		}
	}
	if _, live := m.Net.PoolTotals(); live != 0 {
		return run{}, fmt.Errorf("%s: %d pooled message(s) leaked", s.name, live)
	}
	for _, l2 := range m.L2s {
		if tl, ok := l2.(interface{ TxLive() int64 }); ok && tl.TxLive() != 0 {
			return run{}, fmt.Errorf("%s: %d directory transaction(s) leaked", s.name, tl.TxLive())
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	r.heapBytes = after.HeapAlloc
	runtime.KeepAlive(m)
	runtime.KeepAlive(in)
	r.overall = time.Since(start)
	return r, nil
}

// tally counts runs attempted and failed for one workload and pins the
// fingerprint every run must reproduce.
type tally struct {
	attempted, failed int
	fp                *fingerprint
	errs              []error
}

// record files one run's outcome and reports whether it is usable.
func (c *tally) record(name string, r run, err error) bool {
	c.attempted++
	if err == nil && c.fp != nil && *c.fp != r.fp {
		err = fmt.Errorf("%s: simulated fingerprint %+v differs from first run's %+v", name, r.fp, *c.fp)
	}
	if err != nil {
		c.failed++
		c.errs = append(c.errs, err)
		return false
	}
	if c.fp == nil {
		fp := r.fp
		c.fp = &fp
	}
	return true
}
