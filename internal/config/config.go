// Package config defines the system parameters (the paper's Table 2) and
// the protocol configuration presets evaluated in the paper (§4.2),
// using the paper's TSO-CC-<Bmaxacc>-<Bts>-<Bwg> naming convention.
package config

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// System holds the CMP parameters (Table 2 equivalents).
type System struct {
	Cores int

	L1Size int // bytes, private data cache per core
	L1Ways int

	L2TileSize int // bytes per NUCA tile (one tile per core)
	L2Ways     int

	L1HitLat    sim.Cycle // L1 array access latency
	L2AccessLat sim.Cycle // L2 tile array access latency (network adds the rest)

	MemBase   sim.Cycle // memory latency band start
	MemSpread sim.Cycle // band width

	WriteBuffer int // FIFO entries per core
	MeshRows    int // 0 = auto

	MaxCycles sim.Cycle // simulation safety limit

	// PerCycleEngine forces the engine's per-cycle conformance mode
	// instead of event-driven idle-skip scheduling. Both modes produce
	// bit-identical results; per-cycle exists as the A/B baseline.
	PerCycleEngine bool

	// BatchedCore lets each core retire runs of register/branch
	// instructions, across taken branches, as a single step, stalling
	// over the cycles the run would have occupied so the idle-skip
	// engine can leap them. Memory ops, atomics, fences, pauses and
	// write-buffer drains remain cycle-exact boundaries, so results are
	// bit-identical either way; the toggle exists as the A/B conformance
	// baseline. All preset constructors default it on.
	BatchedCore bool

	// TraceOut, when non-nil, receives one TraceEvent per retired memory
	// operation from every core (see trace.Recorder). Capture does not
	// perturb the simulation — recorded runs are bit-identical to
	// unrecorded ones — and a nil sink costs a single predictable branch
	// per retired instruction. The capture deltas are identical across
	// engine modes and core models, so the same workload records the
	// same trace under every conformance combination.
	TraceOut TraceSink

	// FaultProfile selects a deterministic fault-injection profile
	// ("jitter", "pressure", "burst", optionally parameterized — see
	// internal/faults.Parse). Empty disables injection entirely: no
	// hooks are installed and the hot paths are untouched. For a fixed
	// (FaultProfile, FaultSeed) pair, injected runs remain bit-identical
	// across engine mode, core batching, and trace replay.
	FaultProfile string

	// FaultSeed seeds the fault injector's decision hash. Independent of
	// the workload seed so the same program can be swept across fault
	// schedules.
	FaultSeed uint64

	// FaultFrom/FaultUntil bound the injector's decision-counter window
	// [FaultFrom, FaultUntil): decisions outside it never fire, while the
	// hash streams stay untouched, so narrowing the window isolates which
	// injected faults matter without perturbing the others' draws. Both
	// zero (the default) means unbounded. Used by the violation shrinker
	// (tsocc-sim -shrink) to bisect a failing run down to a minimal
	// fault window.
	FaultFrom  uint64
	FaultUntil uint64

	// Checks enables the runtime invariant oracles (internal/check):
	// SWMR, data-value, and TSO-ordering checking at every core port.
	// Off by default; checking observes but never perturbs the
	// simulation, so checked runs stay bit-identical to unchecked ones.
	Checks bool

	// Obs, when non-nil, arms the observability layer (internal/obs):
	// the metrics registry, the Chrome-trace timeline sink, and pprof
	// labels, per its fields. Observation never perturbs the
	// simulation — obs-on runs are bit-identical to obs-off runs
	// in every engine mode — and a nil Obs leaves
	// the hot paths untouched (0 allocs/op). The field is excluded
	// from trace metadata: sinks are per-run, not part of geometry.
	Obs *obs.Obs `json:"-"`

	// Shards once selected a sharded parallel engine. Every run now uses
	// the one single-threaded engine; the field remains only because the
	// repository benchmark (bench/workloads.go) still assigns it.
	//
	// Deprecated: ignored.
	Shards int
}

// Table2 returns the paper's 32-core configuration.
func Table2() System {
	return System{
		Cores:       32,
		L1Size:      32 << 10,
		L1Ways:      4,
		L2TileSize:  1 << 20,
		L2Ways:      16,
		L1HitLat:    3,
		L2AccessLat: 12,
		MemBase:     120,
		MemSpread:   110,
		WriteBuffer: 32,
		MeshRows:    4,
		MaxCycles:   200_000_000,
		BatchedCore: true,
	}
}

// Scaled returns a Table2-shaped system with a different core count
// (used for the storage sweep and small functional tests).
func Scaled(cores int) System {
	s := Table2()
	s.Cores = cores
	s.MeshRows = 0
	return s
}

// MaxCores bounds the machine sizes Validate accepts. It matches the
// widest fixed-width directory sharing vector in the tree
// (coherence.CoreSet); TSO-CC itself has no structural cap, but every
// harness validates configurations before choosing a protocol, so the
// bound is enforced uniformly.
const MaxCores = 256

// Large returns a Table2-shaped system scaled to a large tiled machine:
// same per-tile cache geometry and latencies, auto-factorized mesh, and
// a raised cycle ceiling for the longer runs hundreds of cores produce.
func Large(cores int) System {
	s := Table2()
	s.Cores = cores
	s.MeshRows = 0
	s.MaxCycles = 500_000_000
	return s
}

// Small returns a reduced configuration for unit tests: few cores, tiny
// caches (to exercise evictions), fast memory.
func Small(cores int) System {
	return System{
		Cores:       cores,
		L1Size:      1 << 10, // 16 lines
		L1Ways:      2,
		L2TileSize:  4 << 10, // 64 lines per tile
		L2Ways:      4,
		L1HitLat:    1,
		L2AccessLat: 2,
		MemBase:     20,
		MemSpread:   10,
		WriteBuffer: 8,
		MeshRows:    0,
		MaxCycles:   80_000_000,
		BatchedCore: true,
	}
}

// Cache block geometry, the one definition every layer uses (arrays,
// memory, message payloads, home-tile interleaving); array geometry is
// validated against it.
const (
	BlockShift = 6
	BlockSize  = 1 << BlockShift // bytes per cache block
)

// BlockAddr masks addr down to its containing block address.
func BlockAddr(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// Bounds on the fields that size host memory or simulated time. They
// sit far above the paper's values (Table 2: 32 KB and 1 MB arrays, a
// 32-entry write buffer, memory at 230 cycles) and low enough that no
// configuration Validate accepts — a trace header supplies one from
// outside the program — can overflow a cycle count or allocate beyond
// Cores × the arrays' tag records (system.FuzzValidateBuilds).
const (
	MaxCacheSize   = 16 << 20 // bytes, per L1 and per L2 tile
	MaxWriteBuffer = 1 << 10  // entries per core
	MaxLatency     = 1 << 20  // cycles, each latency field
)

// checkArray validates one cache array's geometry: memsys.NewCache
// needs a whole, power-of-two number of sets of ways × BlockSize bytes.
func checkArray(sizeField string, size int, waysField string, ways int) error {
	if ways <= 0 {
		return fmt.Errorf("config: %s %d must be positive", waysField, ways)
	}
	if size <= 0 || size > MaxCacheSize {
		return fmt.Errorf("config: %s %d must be in [1, %d] bytes", sizeField, size, MaxCacheSize)
	}
	if ways > size/BlockSize || size%(ways*BlockSize) != 0 {
		return fmt.Errorf("config: %s %d is not a multiple of %s × %d-byte blocks (%d × %d)",
			sizeField, size, waysField, BlockSize, ways, BlockSize)
	}
	if sets := size / (ways * BlockSize); sets&(sets-1) != 0 {
		return fmt.Errorf("config: %s %d / %s %d gives %d sets, not a power of two",
			sizeField, size, waysField, ways, sets)
	}
	return nil
}

// Validate checks structural sanity, including arbitrary core counts:
// any count in [1, MaxCores] is accepted — non-square counts get a
// near-square (possibly ragged) mesh factorization that XY routing
// handles — while counts beyond the widest directory sharing vector are
// rejected explicitly rather than overflowing at run time. An explicit
// MeshRows must leave at least one column and place every core on the
// grid. Cache arrays must be buildable as declared, and the fields that
// size host memory or simulated time stay under the Max* constants.
func (s System) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("config: cores must be positive")
	}
	if s.Cores > MaxCores {
		return fmt.Errorf("config: %d cores exceeds the supported maximum of %d (directory sharing-vector width)",
			s.Cores, MaxCores)
	}
	if s.MeshRows < 0 {
		return fmt.Errorf("config: mesh rows must be non-negative (0 = auto)")
	}
	if s.MeshRows > s.Cores {
		return fmt.Errorf("config: %d mesh rows exceed %d cores (empty rows are not routable geometry)",
			s.MeshRows, s.Cores)
	}
	if err := checkArray("L1Size", s.L1Size, "L1Ways", s.L1Ways); err != nil {
		return err
	}
	if err := checkArray("L2TileSize", s.L2TileSize, "L2Ways", s.L2Ways); err != nil {
		return err
	}
	if s.WriteBuffer <= 0 || s.WriteBuffer > MaxWriteBuffer {
		return fmt.Errorf("config: WriteBuffer %d must be in [1, %d] entries", s.WriteBuffer, MaxWriteBuffer)
	}
	for _, f := range []struct {
		name string
		lat  sim.Cycle
	}{{"L1HitLat", s.L1HitLat}, {"L2AccessLat", s.L2AccessLat}, {"MemBase", s.MemBase}, {"MemSpread", s.MemSpread}} {
		if f.lat < 0 || f.lat > MaxLatency {
			return fmt.Errorf("config: %s %d must be in [0, %d] cycles", f.name, f.lat, MaxLatency)
		}
	}
	if s.FaultUntil != 0 && s.FaultFrom >= s.FaultUntil {
		return fmt.Errorf("config: fault window [FaultFrom=%d, FaultUntil=%d) is empty: a run labelled fault-injected would inject nothing",
			s.FaultFrom, s.FaultUntil)
	}
	return nil
}

// TSOCC parameterizes the TSO-CC protocol family. The zero value is not
// valid; use a preset or fill every field.
type TSOCC struct {
	// MaxAccBits is Bmaxacc: Shared lines may hit 2^MaxAccBits times
	// before re-requesting from L2. SharedAlwaysMiss (CC-shared-to-L2)
	// overrides it.
	MaxAccBits       int
	SharedAlwaysMiss bool

	// TimestampBits is Bts. 0 disables timestamps entirely (the basic
	// protocol: every remote data response is a potential acquire).
	TimestampBits int
	// WriteGroupBits is Bwg: 2^WriteGroupBits consecutive writes share
	// one timestamp.
	WriteGroupBits int
	// EpochBits sizes the epoch-id used to disambiguate timestamp
	// resets (Bepoch-id, 3 in the paper's storage analysis).
	EpochBits int

	// SharedRO enables the shared read-only optimization (§3.4).
	SharedRO bool
	// TSTableEntries bounds the per-node last-seen timestamp tables
	// (§3.3 allows fewer entries than cores, with an eviction policy).
	// 0 means one entry per possible source (unbounded).
	TSTableEntries int
	// DecayWrites is the timestamp distance after which a Shared line
	// decays to SharedRO (256 writes in the paper).
	DecayWrites uint32
}

// Timestamps reports whether the configuration uses timestamps.
func (c TSOCC) Timestamps() bool { return c.TimestampBits > 0 }

// MaxAccesses reports the Shared-line hit budget (0 = always miss).
func (c TSOCC) MaxAccesses() uint32 {
	if c.SharedAlwaysMiss {
		return 0
	}
	return 1 << uint(c.MaxAccBits)
}

// WriteGroupSize reports how many writes share one timestamp.
func (c TSOCC) WriteGroupSize() uint32 { return 1 << uint(c.WriteGroupBits) }

// TSMax reports the largest usable timestamp value.
func (c TSOCC) TSMax() uint32 {
	bits := c.TimestampBits
	if bits <= 0 {
		return 0
	}
	if bits > 31 {
		bits = 31
	}
	return (1 << uint(bits)) - 1
}

// Presets from §4.2. All include the SharedRO optimization, as the paper
// only evaluates configurations with it.

// CCSharedToL2 removes the sharing list entirely: Shared reads always
// miss to L2. No timestamps, no decay.
func CCSharedToL2() TSOCC {
	return TSOCC{SharedAlwaysMiss: true, SharedRO: true, EpochBits: 3}
}

// Basic is TSO-CC-4-basic: the §3.2 protocol plus SharedRO, without
// transitive reduction (no timestamps).
func Basic() TSOCC {
	return TSOCC{MaxAccBits: 4, SharedRO: true, EpochBits: 3, DecayWrites: 256}
}

// NoReset is TSO-CC-4-noreset: effectively infinite timestamps
// (31 bits, as in the paper's simulator) and write-group size 1.
func NoReset() TSOCC {
	return TSOCC{MaxAccBits: 4, TimestampBits: 31, WriteGroupBits: 0, SharedRO: true,
		EpochBits: 3, DecayWrites: 256}
}

// C12x3 is TSO-CC-4-12-3, the paper's best realistic configuration.
func C12x3() TSOCC {
	return TSOCC{MaxAccBits: 4, TimestampBits: 12, WriteGroupBits: 3, SharedRO: true,
		EpochBits: 3, DecayWrites: 256}
}

// C12x0 is TSO-CC-4-12-0 (write-group size 1).
func C12x0() TSOCC {
	return TSOCC{MaxAccBits: 4, TimestampBits: 12, WriteGroupBits: 0, SharedRO: true,
		EpochBits: 3, DecayWrites: 256}
}

// C9x3 is TSO-CC-4-9-3 (9-bit timestamps).
func C9x3() TSOCC {
	return TSOCC{MaxAccBits: 4, TimestampBits: 9, WriteGroupBits: 3, SharedRO: true,
		EpochBits: 3, DecayWrites: 256}
}

// Presets returns the paper's six evaluated TSO-CC configurations in
// plotting order (§4.2). The protocol registry is seeded from this list,
// so adding a preset here adds it to every harness grid and CLI sweep.
func Presets() []TSOCC {
	return []TSOCC{
		CCSharedToL2(),
		Basic(),
		NoReset(),
		C12x3(),
		C12x0(),
		C9x3(),
	}
}

// Name renders the paper's configuration name.
func (c TSOCC) Name() string {
	switch {
	case c.SharedAlwaysMiss:
		return "CC-shared-to-L2"
	case !c.Timestamps():
		return fmt.Sprintf("TSO-CC-%d-basic", c.MaxAccBits)
	case c.TimestampBits >= 31:
		return fmt.Sprintf("TSO-CC-%d-noreset", c.MaxAccBits)
	default:
		return fmt.Sprintf("TSO-CC-%d-%d-%d", c.MaxAccBits, c.TimestampBits, c.WriteGroupBits)
	}
}
