package workloads

import (
	"fmt"

	"repro/internal/program"
)

// Dense-compute mix constants (Knuth's MMIX LCG multiplier/increment).
const (
	denseMulA   = 6364136223846793005
	denseAddB   = 1442695040888963407
	denseUnroll = 24
)

// DenseCompute is the ALU-density microbenchmark behind
// BenchmarkDenseCompute and the "dense-compute" synthetic extra. It is
// deliberately not part of the Table 3 registry (the
// paper does not evaluate it): its only job is to fill the pipeline
// with back-to-back register instructions — the dense phase the
// batched core model exists for. Each thread runs scale(200) rounds of
// a 120-instruction unrolled integer mix chain (register code only, so
// a batched core retires the round loop in capped runs), then
// publishes its final checksum to its per-thread result slot, which
// the functional check verifies against a host-side replay of the same
// chain.
func DenseCompute(p Params) *program.Workload {
	rounds := p.scale(200)
	progs := make([]*program.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("dense-t%d", t))
		b.Li(1, resultBase+int64(t)*64)
		b.Li(5, denseMulA)
		b.Li(6, denseAddB)
		b.Li(7, denseSeed(p.Seed, t))
		b.Li(3, 0)
		b.Li(4, rounds)
		b.Label("loop")
		for j := 0; j < denseUnroll; j++ {
			b.Mul(7, 7, 5)
			b.Add(7, 7, 6)
			b.Shl(9, 7, 7)
			b.Xor(7, 7, 9)
			b.Addi(7, 7, int64(j+1))
		}
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		b.St(1, 0, 7)
		b.Fence()
		b.Halt()
		progs[t] = b.MustBuild()
	}
	threads := p.Threads
	return &program.Workload{
		Name:     "dense-compute",
		Programs: progs,
		Check: func(mem program.MemReader) error {
			for t := 0; t < threads; t++ {
				want := uint64(denseChecksum(denseSeed(p.Seed, t), rounds))
				addr := uint64(resultBase + int64(t)*64)
				if got := mem.ReadWord(addr); got != want {
					return fmt.Errorf("dense-compute: thread %d checksum %#x, want %#x", t, got, want)
				}
			}
			return nil
		},
	}
}

func denseSeed(seed uint64, tid int) int64 {
	return int64(seed)*2654435761 + int64(tid+1)*40503
}

// denseChecksum replays the simulated mix chain on the host: Go's int64
// arithmetic wraps exactly like the core's register ops.
func denseChecksum(acc, rounds int64) int64 {
	for i := int64(0); i < rounds; i++ {
		for j := 0; j < denseUnroll; j++ {
			acc *= denseMulA
			acc += denseAddB
			acc ^= acc << 7
			acc += int64(j + 1)
		}
	}
	return acc
}
