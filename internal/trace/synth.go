package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/sim"
)

// Synthetic trace generators: parameterized, seeded, deterministic
// access-pattern synthesizers for the access classes whose locality the
// paper's lazy self-invalidation exploits. Each appends its ops straight
// into wire form (OpsBuilder checks every one) and returns a valid
// Trace replayable through ReplayCore (or convertible to a
// program-based workload with Trace.Workload). Identical parameters
// always produce byte-identical traces.

// Shared address regions for synthesized traces; far from the workload
// package's regions so mixed experiments never collide.
const (
	synthZipfBase = 0x2000_0000
	synthMigrBase = 0x2100_0000
	synthScanBase = 0x2200_0000
)

// SynthParams sizes a synthetic trace.
type SynthParams struct {
	Cores      int
	OpsPerCore int    // memory operations per core (halt record excluded)
	Seed       uint64 // RNG seed; forked per core
	Blocks     int    // working-set size in cache blocks (0 = per-pattern default)
	MaxGap     int64  // compute gap upper bound in cycles (0 = default 12)
}

// Validate refuses what no generator can honour: more cores than a
// machine has, more than 16 Mi ops in all (7x the repository
// benchmark's replay_zipf8), a working set past the 16 MiB region each
// pattern has (262,144 blocks), a gap bound past 2^62 (which the format
// cannot carry). Zero and negative fields stand for the defaults. The
// error is a *FormatError whose Field is "cores", "ops", "blocks" or
// "maxgap". A generator handed what Validate refuses may panic or run
// the host out of memory.
func (p SynthParams) Validate() error {
	const maxOps, maxBlocks = 1 << 24, (synthMigrBase - synthZipfBase) / 64
	p = p.defaults(0)
	switch {
	case p.Cores > config.MaxCores:
		return formatErr("cores", "%d cores exceed the supported maximum of %d", p.Cores, config.MaxCores)
	case p.OpsPerCore > maxOps/p.Cores:
		return formatErr("ops", "%d cores x %d ops exceed %d ops in all", p.Cores, p.OpsPerCore, maxOps)
	case p.Blocks > maxBlocks:
		return formatErr("blocks", "%d blocks exceed %d, the 16 MiB region a pattern has", p.Blocks, maxBlocks)
	case p.MaxGap > maxDelta:
		return formatErr("maxgap", "gap bound %d exceeds 2^62", p.MaxGap)
	}
	return nil
}

func (p SynthParams) defaults(blocks int) SynthParams {
	if p.Cores <= 0 {
		p.Cores = 4
	}
	if p.OpsPerCore <= 0 {
		p.OpsPerCore = 256
	}
	if p.Blocks <= 0 {
		p.Blocks = blocks
	}
	if p.MaxGap <= 0 {
		p.MaxGap = 12
	}
	return p
}

func synthMeta(name string, p SynthParams) Meta {
	return Meta{
		Protocol: "synthetic",
		Workload: name,
		Seed:     p.Seed,
		Sys:      normalizeSys(config.Scaled(p.Cores)),
	}
}

// synthGap draws a compute gap in [1, MaxGap]. Gaps of at least 1 are
// valid after both synchronous and asynchronous ops, so generators need
// not track the previous op's completion kind.
func synthGap(rng *sim.RNG, p SynthParams) int64 {
	return 1 + rng.Int63n(p.MaxGap)
}

// synthStream accumulates one synthesized stream. A generator that emits an
// op the builder refuses has a bug; it is not an input error, so it
// panics.
type synthStream struct {
	core int
	rng  sim.RNG // this core's fork, held here so no two streams share a cache line
	b    OpsBuilder
}

func (s *synthStream) add(op Op) {
	if err := s.b.Append(op); err != nil {
		s.fail(err)
	}
}

func (s *synthStream) fail(err error) {
	panic(fmt.Sprintf("trace: generator produced an invalid stream: core %d: %s", s.core, err.(*FormatError).Msg))
}

// synthesize is what the generators share. It forks one RNG per core,
// in core order, then has body append each core's ops and closes the
// stream with a halt. The streams are written on up to GOMAXPROCS
// goroutines, each into its own Streams slot, so the bytes depend on
// the forks alone, never on the schedule. A body's panic (a generator
// assert) is re-raised on the caller's goroutine once every stream is
// done: the lowest failing core's, whatever the schedule.
func synthesize(name string, p SynthParams, salt uint64, body func(s *synthStream, rng *sim.RNG)) *Trace {
	t := &Trace{Meta: synthMeta(name, p), Streams: make([]Stream, p.Cores)}
	root := sim.NewRNG(p.Seed ^ salt)
	rngs := make([]sim.RNG, p.Cores)
	for core := range rngs {
		rngs[core] = *root.Fork()
	}
	fails := make([]any, p.Cores)
	stream := func(core int) {
		defer func() { fails[core] = recover() }()
		s := &synthStream{core: core, rng: rngs[core]}
		rng := &s.rng
		s.b.Grow(10 * (p.OpsPerCore + 1)) // the generators write 5-9.3 B/op
		body(s, rng)
		g := synthGap(rng, p)
		s.add(Op{Kind: config.TraceHalt, Gap: g, Instrs: g})
		ops, err := s.b.Finish()
		if err != nil {
			s.fail(err)
		}
		t.Streams[core] = Stream{Core: core, Ops: ops}
	}
	var next atomic.Int64 // the next core to claim
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), p.Cores); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for core := int(next.Add(1) - 1); core < p.Cores; core = int(next.Add(1) - 1) {
				stream(core)
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		if f != nil {
			panic(f)
		}
	}
	return t
}

// zipfSampler draws block ranks with probability proportional to
// 1/(rank+1). It answers exactly what sort.SearchFloat64s(cdf, u) does —
// the smallest rank whose cumulative weight reaches u — but looks it up
// in a guide table instead of bisecting: bucket k of the table covers
// u in [k/G, (k+1)/G), and the answer for u = k/G is a lower bound for
// the whole bucket. Where the next bucket's edge has the same answer,
// every u in the bucket has it too, and the entry is that answer; on
// the other buckets the entry is its complement (negative), and a short
// forward scan from the lower bound finishes. With sixteen buckets per
// block (at the default 4096 blocks) over nine draws in ten need no
// scan; the table is capped at 64 Ki entries (256 KiB), but never has
// fewer than the block count, which keeps the scans under two steps
// against bisection's twelve.
//
// The bucket arithmetic is exact only because G is a power of two:
// u*G and k/G are then pure exponent shifts, so int(u*G) == k implies
// k/G <= u with no rounding, and the guide entry really is a lower
// bound. Any other G can round u*G up across a bucket edge and start
// the scan past the answer.
type zipfSampler struct {
	cdf   []float64
	guide []int32
	scale float64 // G as a float
}

func newZipfSampler(blocks int) *zipfSampler {
	// Zipf CDF over block ranks (exponent 1: weight 1/(rank+1)).
	cdf := make([]float64, blocks)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	g := 1
	for g < blocks || g < 16*blocks && g < 1<<16 {
		g <<= 1
	}
	z := &zipfSampler{cdf: cdf, guide: make([]int32, g), scale: float64(g)}
	rank := 0
	for k := range z.guide { // each bucket's lower bound
		for edge := float64(k) / z.scale; rank < blocks && cdf[rank] < edge; rank++ {
		}
		z.guide[k] = int32(rank)
	}
	for k := range z.guide { // complemented where the next edge differs
		if k == g-1 || z.guide[k+1] != z.guide[k] {
			z.guide[k] = ^z.guide[k]
		}
	}
	return z
}

// rank returns the smallest i with cdf[i] >= u, or len(cdf) if there is
// none, for u in [0, 1).
func (z *zipfSampler) rank(u float64) int {
	i := int(z.guide[int(u*z.scale)])
	if i >= 0 {
		return i
	}
	for i = ^i; i < len(z.cdf) && z.cdf[i] < u; i++ {
	}
	return i
}

// Zipf synthesizes a shared working set with Zipf-distributed block
// popularity (exponent 1): a few hot blocks absorb most accesses, the
// long tail is touched rarely — the read-mostly sharing shape where
// TSO-CC's Shared access-counter and SharedRO decay pay off. One access
// in four is a store.
func Zipf(p SynthParams) *Trace {
	p = p.defaults(4096)
	z := newZipfSampler(p.Blocks)
	return synthesize("synth-zipf", p, 0x5A1F, func(s *synthStream, rng *sim.RNG) {
		for i := 0; i < p.OpsPerCore; i++ {
			blk := z.rank(rng.Float64())
			if blk >= p.Blocks {
				blk = p.Blocks - 1
			}
			addr := uint64(synthZipfBase + blk*64 + rng.Intn(8)*8)
			op := Op{Kind: config.TraceLoad, Addr: addr, Gap: synthGap(rng, p)}
			if rng.Intn(4) == 0 {
				op.Kind = config.TraceStore
				op.Val = rng.Uint64()
			}
			op.Instrs = op.Gap
			s.add(op)
		}
	})
}

// Migratory synthesizes the migratory-sharing pattern: a pool of
// objects each read-then-written by one core at a time, with ownership
// rotating across cores — the access class where an eager protocol
// ping-pongs invalidations and TSO-CC's lazy scheme rides the
// exclusive-state fast path.
func Migratory(p SynthParams) *Trace {
	p = p.defaults(64)
	return synthesize("synth-migratory", p, 0x316, func(s *synthStream, rng *sim.RNG) {
		for i := 0; s.b.Len() < p.OpsPerCore; i++ {
			// Visit objects in a rotating schedule so each is handed
			// core-to-core; read the object header then write it back.
			obj := (i + s.core) % p.Blocks
			addr := uint64(synthMigrBase + obj*64)
			g := synthGap(rng, p)
			s.add(Op{Kind: config.TraceLoad, Addr: addr, Gap: g, Instrs: g})
			if s.b.Len() < p.OpsPerCore {
				g = synthGap(rng, p)
				s.add(Op{Kind: config.TraceStore, Addr: addr,
					Val: rng.Uint64(), Gap: g, Instrs: g})
			}
		}
	})
}

// Scan synthesizes streaming sequential scans over one shared array:
// every core walks the region block-by-block from a staggered start,
// storing every 16th block — no temporal locality, the canneal-like
// shape that defeats any sharing optimization and stresses eviction and
// self-invalidation sweeps.
func Scan(p SynthParams) *Trace {
	p = p.defaults(8192)
	return synthesize("synth-scan", p, 0x5CA7, func(s *synthStream, rng *sim.RNG) {
		start := (s.core * p.Blocks) / p.Cores
		for i := 0; i < p.OpsPerCore; i++ {
			blk := (start + i) % p.Blocks
			addr := uint64(synthScanBase + blk*64)
			op := Op{Kind: config.TraceLoad, Addr: addr, Gap: synthGap(rng, p)}
			if i%16 == 15 {
				op.Kind = config.TraceStore
				op.Val = uint64(s.core)<<32 | uint64(i)
			}
			op.Instrs = op.Gap
			s.add(op)
		}
	})
}
