package system_test

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// TestRunFootprintFollowsFills bounds the heap a whole run keeps: the
// workload and the machine after it has run, measured after a forced GC
// while the machine is still referenced. Cache storage should follow
// the ways and blocks the run fills, not the capacity the geometry
// declares, so a 256-core machine whose tiles each fill a few dozen
// lines keeps a few MiB. Both bounds fail when a cache's data slab
// grows by 16 KiB at a time: x264 then keeps 12.8 MiB and fft 1.6 MiB.
func TestRunFootprintFollowsFills(t *testing.T) {
	for _, tc := range []struct {
		bench string
		cores int
		bound uint64 // bytes
	}{
		{"x264", 256, 7 << 20},
		{"fft", 32, 1 << 20},
	} {
		e := workloads.ByName(tc.bench)
		if e == nil {
			t.Fatalf("no workload %q", tc.bench)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := e.Gen(workloads.Params{Threads: tc.cores, Scale: 1, Seed: 1})
		m, err := system.NewMachine(config.Large(tc.cores), tsocc.New(config.C12x3()), w)
		if err != nil {
			t.Fatalf("%s on %d cores: %v", tc.bench, tc.cores, err)
		}
		if _, err := m.Execute(); err != nil {
			t.Fatalf("%s on %d cores: %v", tc.bench, tc.cores, err)
		}
		if err := w.Check(m.Reader()); err != nil {
			t.Fatalf("%s on %d cores: functional check: %v", tc.bench, tc.cores, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		kept := after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
		t.Logf("%s on %d cores keeps %.2f MiB", tc.bench, tc.cores, float64(kept)/(1<<20))
		if kept > tc.bound {
			t.Errorf("%s on %d cores keeps %.2f MiB after the run, bound %.2f MiB",
				tc.bench, tc.cores, float64(kept)/(1<<20), float64(tc.bound)/(1<<20))
		}
	}
}
