package trace

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestZipfSamplerMatchesBisection: the guide-table lookup returns the
// index sort.SearchFloat64s returns, for every block count shape (a
// power of two, one off either side, tiny, the default) and for the
// draws that could break it: 0, the largest float below 1, every bucket
// edge with its two neighbours, every CDF value with its two neighbours,
// and a million draws from the generator's own RNG.
func TestZipfSamplerMatchesBisection(t *testing.T) {
	for _, blocks := range []int{1, 2, 3, 64, 1000, 4095, 4096, 4097} {
		z := newZipfSampler(blocks)
		if g := len(z.guide); g&(g-1) != 0 || g < blocks {
			t.Fatalf("blocks %d: guide table has %d buckets, want a power of two >= blocks", blocks, g)
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := z.rank(u), sort.SearchFloat64s(z.cdf, u); got != want {
				t.Fatalf("blocks %d: rank(%v) = %d, bisection says %d", blocks, u, got, want)
			}
		}
		around := func(u float64) {
			check(math.Nextafter(u, 0))
			check(u)
			check(math.Nextafter(u, 1))
		}
		around(0)
		around(1) // checks 1-ulp only; 1 itself is outside the RNG's range
		for k := range z.guide {
			around(float64(k) / z.scale)
		}
		for _, c := range z.cdf {
			around(c)
		}
		rng := sim.NewRNG(uint64(blocks))
		for i := 0; i < 1000000; i++ {
			check(rng.Float64())
		}
	}
}
