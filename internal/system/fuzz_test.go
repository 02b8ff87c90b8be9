package system_test

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/mesi"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/tsocc"
)

// The footprint bound FuzzValidateBuilds holds every accepted
// configuration to: the 4-byte set directory of every array (a set's
// tag records arrive in grants from its first Victim on, and a way's
// data block with its first install, so a built machine holds none),
// plus a fixed slack for everything that does not scale with cache
// capacity (controllers, timestamp tables, mesh, engine: under 2 MiB at
// MaxCores).
const (
	dirEntryBytes = 4
	buildSlack    = 4 << 20
)

// FuzzValidateBuilds: whatever config.System.Validate accepts — a trace
// header hands it fields from outside the program — builds without a
// panic, allocating no more than the bound above; whatever it
// refuses, NewMachine refuses too.
func FuzzValidateBuilds(f *testing.F) {
	add := func(s config.System, useMESI bool) {
		f.Add(s.Cores, s.L1Size, s.L1Ways, s.L2TileSize, s.L2Ways, s.WriteBuffer, s.MeshRows,
			int64(s.L1HitLat), int64(s.L2AccessLat), int64(s.MemBase), int64(s.MemSpread), useMESI)
	}
	for _, s := range []config.System{
		config.Table2(), config.Scaled(8), config.Small(1), config.Small(4), config.Small(13),
		config.Large(64), config.Large(128), config.Large(256),
	} {
		add(s, false)
		add(s, true)
	}
	// The geometries that passed Validate before it checked them:
	// NewCache panic, a 4-line cache declared as 1 line, out of memory.
	for _, mut := range []func(*config.System){
		func(s *config.System) { s.L1Size = 3000 },
		func(s *config.System) { s.L1Size, s.L1Ways = 64, 4 },
		func(s *config.System) { s.WriteBuffer = 1 << 40 },
	} {
		s := config.Small(4)
		mut(&s)
		add(s, false)
	}
	// A ragged grid with explicit rows: 13 cores on 3×5 leave two spare
	// routers that carry links but no endpoint.
	ragged := config.Small(13)
	ragged.MeshRows = 3
	add(ragged, false)

	halt := program.NewBuilder("halt")
	halt.Halt()
	w := &program.Workload{Name: "halt", Programs: []*program.Program{halt.MustBuild()}}

	f.Fuzz(func(t *testing.T, cores, l1Size, l1Ways, l2Size, l2Ways, wb, meshRows int,
		l1Lat, l2Lat, memBase, memSpread int64, useMESI bool) {
		cfg := config.System{
			Cores: cores, L1Size: l1Size, L1Ways: l1Ways, L2TileSize: l2Size, L2Ways: l2Ways,
			WriteBuffer: wb, MeshRows: meshRows,
			L1HitLat: sim.Cycle(l1Lat), L2AccessLat: sim.Cycle(l2Lat),
			MemBase: sim.Cycle(memBase), MemSpread: sim.Cycle(memSpread),
			BatchedCore: true,
		}
		var proto system.Protocol = tsocc.New(config.C12x3())
		if useMESI {
			proto = mesi.New()
		}
		verr := cfg.Validate()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := system.NewMachine(cfg, proto, w)
		if verr != nil {
			if err == nil {
				t.Fatalf("Validate refused %+v (%v) but NewMachine built it", cfg, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted %+v but NewMachine failed: %v", cfg, err)
		}
		sets := uint64(cfg.Cores) * uint64(cfg.L1Size/(cfg.L1Ways*config.BlockSize)+cfg.L2TileSize/(cfg.L2Ways*config.BlockSize))
		bound := sets*dirEntryBytes + buildSlack
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("%+v allocated %d bytes, bound %d (%d sets)", cfg, got, bound, sets)
		}
	})
}
