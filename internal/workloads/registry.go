package workloads

import "repro/internal/program"

// Entry is one benchmark in the suite.
type Entry struct {
	Name  string
	Suite string // PARSEC / SPLASH-2 / STAMP
	Gen   Generator
	Desc  string
}

// Registry returns the Table 3 benchmark suite in the paper's order.
// Parameter choices reproduce each program's dominant sharing pattern;
// iteration counts are sized so a 32-core run completes in seconds of
// host time (use Params.Scale to grow them).
func Registry() []Entry {
	return []Entry{
		{
			Name: "blackscholes", Suite: "PARSEC",
			Desc: "data-parallel over read-only option data; hot shared params block",
			Gen: func(p Params) *program.Workload {
				return dataParallel("blackscholes", p, dataParallelCfg{
					iters: 160, tableWords: 4096, paramsReads: 4, computeNops: 6,
				})
			},
		},
		{
			Name: "canneal", Suite: "PARSEC",
			Desc: "random element swaps over a large array; very low locality",
			Gen: func(p Params) *program.Workload {
				return scatterSwap("canneal", p, scatterSwapCfg{
					iters: 120, arrayWords: 65536, rmwEvery: 16,
				})
			},
		},
		{
			Name: "dedup", Suite: "PARSEC",
			Desc: "lock-protected hash table inserts (pipeline hash stage)",
			Gen: func(p Params) *program.Workload {
				return lockHash("dedup", p, lockHashCfg{
					iters: 100, buckets: 256, computeNops: 8,
				})
			},
		},
		{
			Name: "fluidanimate", Suite: "PARSEC",
			Desc: "mostly-private grid updates with fine-grained boundary locks",
			Gen: func(p Params) *program.Workload {
				return neighbor("fluidanimate", p, neighborCfg{
					iters: 60, cells: 512, locks: 64,
					privateOps: 24, computeNops: 4, phases: 4,
				})
			},
		},
		{
			Name: "x264", Suite: "PARSEC",
			Desc: "frame pipeline: flag handshakes between stages (Figure 1 at scale)",
			Gen: func(p Params) *program.Workload {
				return pipeline("x264", p, pipelineCfg{items: 80, computeNops: 12})
			},
		},
		{
			Name: "fft", Suite: "SPLASH-2",
			Desc: "phased all-to-all transpose with barriers",
			Gen: func(p Params) *program.Workload {
				return allToAll("fft", p, allToAllCfg{phases: 6, words: 96})
			},
		},
		{
			Name: "lu-cont", Suite: "SPLASH-2",
			Desc: "blocked LU, contiguous allocation (no false sharing)",
			Gen: func(p Params) *program.Workload {
				return blocked("lu-cont", p, blockedCfg{
					phases: 10, pivotWords: 32, updateWords: 96, falseSharing: false,
				})
			},
		},
		{
			Name: "lu-noncont", Suite: "SPLASH-2",
			Desc: "blocked LU, word-interleaved rows (heavy false sharing)",
			Gen: func(p Params) *program.Workload {
				return blocked("lu-noncont", p, blockedCfg{
					phases: 10, pivotWords: 32, updateWords: 96, falseSharing: true,
				})
			},
		},
		{
			Name: "radix", Suite: "SPLASH-2",
			Desc: "counting sort: private histogram, fetch-add offsets, scattered permutation writes",
			Gen: func(p Params) *program.Workload {
				return radixSort("radix", p, radixCfg{
					keysPerThread: 120, bucketsN: 64, arrayWords: 32768,
				})
			},
		},
		{
			Name: "raytrace", Suite: "SPLASH-2",
			Desc: "read-only scene traversal with a fetch-add work queue",
			Gen: func(p Params) *program.Workload {
				return dataParallel("raytrace", p, dataParallelCfg{
					iters: 120, tableWords: 16384, paramsReads: 2,
					computeNops: 10, workQueue: true,
				})
			},
		},
		{
			Name: "water-nsq", Suite: "SPLASH-2",
			Desc: "per-molecule locked force updates with phase barriers",
			Gen: func(p Params) *program.Workload {
				return neighbor("water-nsq", p, neighborCfg{
					iters: 70, cells: 512, locks: 128,
					privateOps: 8, computeNops: 6, phases: 2,
				})
			},
		},
		{
			Name: "bayes", Suite: "STAMP",
			Desc: "STM: long transactions, large write sets",
			Gen: func(p Params) *program.Workload {
				return stm("bayes", p, stmCfg{
					txns: 24, txReads: 12, txWrites: 8,
					tableWords: 8192, thinkNops: 20,
				})
			},
		},
		{
			Name: "genome", Suite: "STAMP",
			Desc: "STM: hash-table segment insertion, medium transactions",
			Gen: func(p Params) *program.Workload {
				return stm("genome", p, stmCfg{
					txns: 36, txReads: 8, txWrites: 3,
					tableWords: 16384, thinkNops: 8,
				})
			},
		},
		{
			Name: "intruder", Suite: "STAMP",
			Desc: "short high-contention queue transactions (pop/process/push)",
			Gen: func(p Params) *program.Workload {
				return hotQueue("intruder", p, hotQueueCfg{
					iters: 80, queues: 3, slots: 4096, thinkNops: 10,
				})
			},
		},
		{
			Name: "ssca2", Suite: "STAMP",
			Desc: "scattered atomic adds over graph node weights",
			Gen: func(p Params) *program.Workload {
				return atomicScatter("ssca2", p, atomicScatterCfg{
					iters: 140, nodes: 8192,
				})
			},
		},
		{
			Name: "vacation", Suite: "STAMP",
			Desc: "STM: read-dominated reservation-table transactions",
			Gen: func(p Params) *program.Workload {
				return stm("vacation", p, stmCfg{
					txns: 28, txReads: 16, txWrites: 2,
					tableWords: 16384, thinkNops: 12,
				})
			},
		},
	}
}

// Extras lists synthetic workloads resolvable by name but deliberately
// outside the Table 3 registry: they never join default grids or
// figures (Names covers only the registry), yet every -bench selection
// path can run them. The trace package's seeded access patterns are
// not here: they run as traces (trace.Zipf / Migratory / Scan through
// system.Replay, or tsocc-trace synth then replay).
func Extras() []Entry {
	return []Entry{
		{
			Name: "dense-compute", Suite: "synthetic",
			Desc: "unrolled ALU mix chains; the batched-core acceptance workload",
			Gen:  DenseCompute,
		},
	}
}

// ByName finds a benchmark by name in the registry or the synthetic
// extras, or nil.
func ByName(name string) *Entry {
	for _, e := range Registry() {
		if e.Name == name {
			e := e
			return &e
		}
	}
	for _, e := range Extras() {
		if e.Name == name {
			e := e
			return &e
		}
	}
	return nil
}

// Names lists all benchmark names in suite order.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.Name
	}
	return out
}
