package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPresetNames(t *testing.T) {
	cases := map[string]TSOCC{
		"CC-shared-to-L2":  CCSharedToL2(),
		"TSO-CC-4-basic":   Basic(),
		"TSO-CC-4-noreset": NoReset(),
		"TSO-CC-4-12-3":    C12x3(),
		"TSO-CC-4-12-0":    C12x0(),
		"TSO-CC-4-9-3":     C9x3(),
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestMaxAccesses(t *testing.T) {
	if CCSharedToL2().MaxAccesses() != 0 {
		t.Fatal("CC-shared-to-L2 must always miss on Shared")
	}
	if got := C12x3().MaxAccesses(); got != 16 {
		t.Fatalf("4-bit access counter allows %d hits, want 16", got)
	}
}

func TestWriteGroupSize(t *testing.T) {
	if C12x3().WriteGroupSize() != 8 {
		t.Fatalf("Bwg=3 group size = %d, want 8", C12x3().WriteGroupSize())
	}
	if C12x0().WriteGroupSize() != 1 {
		t.Fatal("Bwg=0 group size must be 1")
	}
}

func TestTSMax(t *testing.T) {
	if got := C12x3().TSMax(); got != 4095 {
		t.Fatalf("12-bit TSMax = %d", got)
	}
	if got := C9x3().TSMax(); got != 511 {
		t.Fatalf("9-bit TSMax = %d", got)
	}
	if Basic().TSMax() != 0 {
		t.Fatal("basic (no timestamps) TSMax must be 0")
	}
	if got := NoReset().TSMax(); got != (1<<31)-1 {
		t.Fatalf("noreset TSMax = %d", got)
	}
}

func TestTimestampsFlag(t *testing.T) {
	if Basic().Timestamps() || CCSharedToL2().Timestamps() {
		t.Fatal("timestamp-less configs report Timestamps() true")
	}
	if !C12x3().Timestamps() || !NoReset().Timestamps() {
		t.Fatal("timestamped configs report Timestamps() false")
	}
}

func TestAllPresetsUseSharedRO(t *testing.T) {
	// §4.2: every evaluated configuration includes the SharedRO opt.
	for _, c := range []TSOCC{CCSharedToL2(), Basic(), NoReset(), C12x3(), C12x0(), C9x3()} {
		if !c.SharedRO {
			t.Fatalf("%s missing SharedRO", c.Name())
		}
	}
}

func TestTable2Parameters(t *testing.T) {
	s := Table2()
	if s.Cores != 32 {
		t.Fatalf("cores = %d", s.Cores)
	}
	if s.L1Size != 32<<10 || s.L1Ways != 4 {
		t.Fatal("L1 geometry mismatch with Table 2")
	}
	if s.L2TileSize != 1<<20 || s.L2Ways != 16 {
		t.Fatal("L2 geometry mismatch with Table 2")
	}
	if s.L1HitLat != 3 {
		t.Fatal("L1 hit latency mismatch")
	}
	if s.WriteBuffer != 32 {
		t.Fatal("write buffer mismatch")
	}
	if s.MeshRows != 4 {
		t.Fatal("mesh rows mismatch")
	}
	if s.MemBase != 120 || s.MemBase+s.MemSpread != 230 {
		t.Fatal("memory latency band mismatch")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []System{
		{},
		{Cores: 4},
		{Cores: 4, L1Size: 1024, L1Ways: 2, L2TileSize: 4096, L2Ways: 4},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}

	// Geometries that used to pass Validate and then panic in
	// memsys.NewCache, build a cache larger than declared, or exhaust
	// host memory. Each refusal is one line naming the field.
	for _, tc := range []struct {
		field string
		mut   func(*System)
	}{
		{"L1Size", func(s *System) { s.L1Size = 3000 }},              // 11.7 sets
		{"L1Size", func(s *System) { s.L1Size, s.L1Ways = 64, 4 }},   // 1 line declared, 4 ways
		{"L1Size", func(s *System) { s.L1Size = 3 * 4 * BlockSize }}, // 3 sets
		{"L1Size", func(s *System) { s.L1Size = 0 }},
		{"L1Size", func(s *System) { s.L1Size = 2 * MaxCacheSize }},
		{"L1Ways", func(s *System) { s.L1Ways = 0 }},
		{"L1Ways", func(s *System) { s.L1Ways = 1 << 62 }}, // ways × 64 overflows
		{"L2TileSize", func(s *System) { s.L2TileSize = 1<<20 + 64 }},
		{"L2TileSize", func(s *System) { s.L2TileSize = 1 << 40 }},
		{"L2TileSize", func(s *System) { s.L2TileSize = 48 * 1024 }}, // 48 sets
		{"L2Ways", func(s *System) { s.L2Ways = -16 }},
		{"WriteBuffer", func(s *System) { s.WriteBuffer = 1 << 40 }}, // out of memory in cpu.New
		{"WriteBuffer", func(s *System) { s.WriteBuffer = 0 }},
		{"L1HitLat", func(s *System) { s.L1HitLat = -1 }},
		{"L2AccessLat", func(s *System) { s.L2AccessLat = 1 << 62 }}, // cycle arithmetic overflows
		{"MemBase", func(s *System) { s.MemBase = MaxLatency + 1 }},
		{"MemSpread", func(s *System) { s.MemSpread = -110 }},
	} {
		s := Table2()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: expected validation error for %+v", tc.field, s)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.field) || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q should be one line naming the field", tc.field, msg)
		}
	}

	// The bounds themselves are accepted.
	s := Table2()
	s.L1Size, s.L1Ways = BlockSize, 1
	s.L2TileSize, s.L2Ways = MaxCacheSize, MaxCacheSize/BlockSize
	s.WriteBuffer = MaxWriteBuffer
	s.L1HitLat, s.L2AccessLat, s.MemBase, s.MemSpread = 0, MaxLatency, MaxLatency, 0
	if err := s.Validate(); err != nil {
		t.Errorf("boundary geometry refused: %v", err)
	}
}

// TestValidateArbitraryCores: any core count up to MaxCores validates —
// non-square counts included, since the mesh auto-factorizes and XY
// routes ragged grids — while out-of-range counts and impossible mesh
// shapes are rejected with explicit errors.
func TestValidateArbitraryCores(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 5, 7, 10, 12, 13, 48, 63, 64, 96, 100, 128, 200, 255, 256} {
		s := Scaled(cores)
		if err := s.Validate(); err != nil {
			t.Errorf("cores=%d (auto mesh): unexpected validation error: %v", cores, err)
		}
	}
	for _, tc := range []struct{ cores, rows int }{
		{6, 2},  // 2x3 rectangle
		{10, 3}, // ragged 3x4 grid, last row short
		{13, 2}, // prime count on an explicit 2-row grid
	} {
		s := Scaled(tc.cores)
		s.MeshRows = tc.rows
		if err := s.Validate(); err != nil {
			t.Errorf("cores=%d rows=%d: unexpected validation error: %v", tc.cores, tc.rows, err)
		}
	}
	bad := []System{
		func() System { s := Scaled(MaxCores + 1); return s }(),       // beyond sharing-vector width
		func() System { s := Scaled(512); return s }(),                // far beyond
		func() System { s := Scaled(4); s.MeshRows = 5; return s }(),  // more rows than cores
		func() System { s := Scaled(8); s.MeshRows = -1; return s }(), // negative rows
		// empty fault-decision window: From >= Until with Until set
		func() System { s := Scaled(8); s.FaultFrom, s.FaultUntil = 20, 20; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d (cores=%d rows=%d): expected validation error", i, s.Cores, s.MeshRows)
		}
	}
}

// TestLargePresets: the scaling presets keep Table2's per-tile shape.
func TestLargePresets(t *testing.T) {
	for _, tc := range []struct {
		sys   System
		cores int
	}{
		{Large64(), 64},
		{Large128(), 128},
		{Large256(), 256},
	} {
		if tc.sys.Cores != tc.cores {
			t.Fatalf("preset has %d cores, want %d", tc.sys.Cores, tc.cores)
		}
		if tc.sys.L1Size != Table2().L1Size || tc.sys.L2TileSize != Table2().L2TileSize {
			t.Fatalf("Large(%d) changed per-tile cache geometry", tc.cores)
		}
		if err := tc.sys.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScaledKeepsShape(t *testing.T) {
	s := Scaled(64)
	if s.Cores != 64 || s.L1Size != Table2().L1Size {
		t.Fatal("Scaled should only change core count")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAddr(t *testing.T) {
	cases := map[uint64]uint64{
		0x0:    0x0,
		0x3f:   0x0,
		0x40:   0x40,
		0x1234: 0x1200,
	}
	for in, want := range cases {
		if got := BlockAddr(in); got != want {
			t.Fatalf("BlockAddr(%#x) = %#x, want %#x", in, got, want)
		}
	}
}

func TestBlockAddrIdempotent(t *testing.T) {
	check := func(addr uint64) bool {
		b := BlockAddr(addr)
		return BlockAddr(b) == b && b <= addr && addr-b < BlockSize
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
