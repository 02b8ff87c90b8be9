package memsys_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
)

// TestL2SetsReachablePerTile pins a known modelling gap (README, "Known
// modelling gaps"): a block's home tile is block % Cores (coherence.HomeTile)
// and its set in that tile's L2 is block & (sets-1), so with a
// power-of-two core count a tile only ever indexes the sets congruent to
// its own number modulo Cores, and the effective L2 per tile is
// L2TileSize / Cores. Indexing the set above the bank bits would lift
// this, and move every simulated count; when it lands, this test flips.
func TestL2SetsReachablePerTile(t *testing.T) {
	sys := config.Table2()
	for _, cores := range []int{8, sys.Cores} {
		for _, tile := range []int{0, cores - 1} {
			c := memsys.NewCache[struct{}](sys.L2TileSize, sys.L2Ways)
			// A fresh set's victim is its first way, so distinct victims
			// are distinct sets. sets*cores blocks cover every (home, set)
			// pair the interleaving can produce.
			sets := make(map[*memsys.Way[struct{}]]bool)
			for blk := 0; blk < c.Sets()*cores; blk++ {
				addr := uint64(blk) << config.BlockShift
				if coherence.HomeTile(addr, cores) == tile {
					sets[c.Victim(addr)] = true
				}
			}
			if want := c.Sets() / cores; len(sets) != want {
				t.Errorf("%d cores, tile %d: reaches %d of %d L2 sets, want %d (effective tile %d KiB of %d)",
					cores, tile, len(sets), c.Sets(), want, sys.L2TileSize/cores>>10, sys.L2TileSize>>10)
			}
		}
	}
}
