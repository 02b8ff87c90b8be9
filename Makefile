GO ?= go

.PHONY: all vet fmt-check layer-check loc build test inline-check race bench-smoke bench repo-bench repo-bench-compare fuzz-smoke trace-gate fault-smoke oracle-sweep obs-smoke scale-smoke ci

all: ci

# vet also fails on unformatted files: size criteria are measured as
# wc -l of gofmt-clean source (make loc), so formatting must not drift;
# and on a dependency edge layer-check forbids.
vet: fmt-check layer-check
	$(GO) vet ./...

# internal/workloads builds programs on internal/program and nothing
# else in the repo, and internal/trace never imports internal/program:
# a trace runs through ReplayCore, not as a program.
layer-check:
	@bad=$$($(GO) list -deps ./internal/workloads | grep '^repro/internal/' | grep -vx -e repro/internal/program -e repro/internal/workloads); \
	  if [ -n "$$bad" ]; then echo "internal/workloads depends on:"; echo "$$bad"; exit 1; fi
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/trace | grep -qx repro/internal/program; then \
	  echo "internal/trace imports repro/internal/program"; exit 1; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# Go line counts, the figures size criteria are stated in: wc -l of the
# gofmt-clean .go files, non-test and _test.go apart, per package
# directory and for the whole repo.
loc: fmt-check
	@find . -name '*.go' -not -path './.git/*' | sort | xargs wc -l | awk ' \
	  $$2 == "total" { next } \
	  { d = $$2; sub(/^\.\//, "", d); sub(/\/[^\/]*$$/, "", d); if (d ~ /\.go$$/) d = "."; \
	    t = ($$2 ~ /_test\.go$$/); n[d, t] += $$1; dirs[d] = 1; all[t] += $$1 } \
	  END { printf "%-28s %9s %9s\n", "package", "non-test", "test"; \
	    for (d in dirs) printf "%-28s %9d %9d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
	    printf "%-28s %9d %9d\n", "total", all[0], all[1] }'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The L1 hit path calls these L1Base helpers once per access, both
# TSO front ends (cpu.Front) call these write-buffer and stall helpers
# on every retirement, the trace cursor reads every varint field and
# address delta of a replayed stream through uvarintAt and unzigzag,
# Decode's scan reads every address delta through varintWord, and
# every remote TSO-CC data response consults its last-seen table through
# lastSeen.get and lastSeen.sync; all rely on the compiler inlining
# them, so fail if any stops being inlinable. Arguments: package, then Type.Method (pointer receiver) or
# a plain function's name.
inline-check:
	@set -e; check() { \
	  out=$$($(GO) build -gcflags=-m ./internal/$$1 2>&1) || { echo "$$out"; exit 1; }; shift; \
	  for f in "$$@"; do \
	    case $$f in *.*) want="(\*$${f%.*})\.$${f#*.}";; *) want=$$f;; esac; \
	    echo "$$out" | grep -q "can inline $$want$$" || { echo "inline-check: $$f is not inlinable"; exit 1; }; \
	  done; }; \
	check coherence l1Ctl.LoadBlocked l1Ctl.StoreBlocked l1Ctl.WritePending l1Ctl.CompleteVal l1Ctl.CompleteNext; \
	check cpu WriteBuffer.Ready WriteBuffer.Empty WriteBuffer.Full WriteBuffer.Forward WriteBuffer.Push WriteBuffer.Drain Stalls.On Stalls.Open; \
	check trace uvarintAt unzigzag varintWord; \
	check tsocc lastSeen.get lastSeen.sync; \
	echo "inline-check: L1 hit-path, front-end, trace-cursor, trace-decode and last-seen helpers inlinable"

# Unit-test packages under the race detector (mirrors the CI race job);
# the TxTable lifecycle checks are in every build.
race:
	$(GO) test -race ./internal/...

# Quick benchmark smoke: exercises the perf-critical paths without the
# full figure grids, in three legs sized to what one op costs. The
# whole-machine benchmarks simulate a machine (or encode a trace) per
# op, so 20 ops each suffice; the mesh-delivery, L1-hit, wide dispatch
# and full-set scan benchmarks time one message, access, cycle or set
# scan per op and keep 2000. The full-set scan (Peek + Victim on full
# 16-way L2 sets) tracks the cost of scanning a set grant by grant,
# which the bench workloads, at about 8 ways a set, do not show. The trace synthesis and decode benchmarks work on megabytes per
# op, hence their own, short leg, run at one CPU and at two: synthesis
# writes its streams, and Decode checks them, on up to GOMAXPROCS
# goroutines, so the one-CPU figures show a change that makes
# single-stream synthesis, or the single-stream decode scan, slower even
# where the concurrency hides it.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngineStep|BenchmarkEngineIdleSkip|BenchmarkLowIdleWorkload|BenchmarkDenseCompute|BenchmarkTraceCodec' -benchtime 20x .
	$(GO) test -run xxx -bench 'BenchmarkMeshDelivery|BenchmarkL1HitPath|BenchmarkEngineDispatchWide|BenchmarkCacheFullSetScan' -benchtime 2000x .
	$(GO) test -run xxx -bench 'BenchmarkTraceSynth|BenchmarkTraceDecode' -benchtime 5x -cpu 1,2 .

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# The repository's benchmark (bench/README.md is the contract): six
# workloads, end-to-end pass plus traced per-layer pass, about 2.5
# minutes. Every performance claim is measured with this; pass
# ARGS='-workload miss64 -out /tmp/a.json' to narrow it or keep the
# report, and ARGS='-out BENCH_<date>.json' for a dated trajectory
# point to commit. CI runs it with ARGS='-seconds 1': every workload,
# both passes, the exit code the check.
repo-bench:
	$(GO) run ./bench $(ARGS)

# One verdict per (workload, end-to-end metric) between two reports
# written with `-out`: make repo-bench-compare A=/tmp/a.json B=/tmp/b.json
repo-bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Short fuzz iterations (the CI fuzz smoke): the trace codec round-trip
# property (the corpus grows under internal/trace/testdata), the
# wake-set scheduler's scan-all reference properties over fuzzed
# scenario seeds, "whatever config.Validate accepts builds inside its
# footprint bound (4 bytes per declared cache set plus a fixed slack)",
# the batched core against
# the one-instruction-per-tick referee on fuzzed programs, the
# directory timers running every action on its cycle in (cycle,
# scheduling order) order over fuzzed schedule/tick scripts, and the
# cache array against its map-backed referee on fuzzed geometries and
# op sequences.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzTraceRoundTrip -fuzztime 10s ./internal/trace
	$(GO) test -run xxx -fuzz FuzzWakeWheel -fuzztime 10s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzBatchedCore -fuzztime 10s ./internal/cpu
	$(GO) test -run xxx -fuzz FuzzValidateBuilds -fuzztime 10s ./internal/system
	$(GO) test -run xxx -fuzz FuzzTimers -fuzztime 10s ./internal/coherence
	$(GO) test -run xxx -fuzz FuzzCache -fuzztime 10s ./internal/memsys

# Fault-injection smoke: the litmus suite with invariant oracles armed
# under two fault profiles × two protocols (mirrors the CI fault job);
# any TSO-forbidden outcome, oracle violation or deadlock fails.
fault-smoke:
	@set -e; for prof in jitter pressure; do for proto in MESI TSO-CC-4-12-3; do \
	  echo "fault smoke: $$prof / $$proto"; \
	  $(GO) run ./cmd/tsocc-litmus -iters 25 -proto $$proto \
	    -faults $$prof -fault-seed 7 -checks > /dev/null; \
	done; done; echo "fault smoke: all oracles clean"

# Protocol-legality oracle sweep: the litmus suite with the
# state-transition legality tables, TxTable lifecycle audit, and memory
# oracles armed under the directory-side fault profiles (forced
# self-evictions, timestamp-reset storms, delayed PutAcks, and a
# composite) × two protocols. Any illegal state transition, leaked
# transaction, oracle violation or deadlock fails. The randomized
# 20-seed version runs in `go test ./...` as TestFaultSweepOracles, and
# the seeded-bug end-to-end gate (oracle catches a planted illegal
# transition, shrinker reduces it) as TestSeededLegalityBugShrinks.
oracle-sweep:
	@set -e; for prof in evict reset-storm victim "jitter:rate=200+evict:rate=80"; do \
	for proto in MESI TSO-CC-4-12-3; do \
	  echo "oracle sweep: $$prof / $$proto"; \
	  $(GO) run ./cmd/tsocc-litmus -iters 25 -proto $$proto \
	    -faults "$$prof" -fault-seed 11 -checks > /dev/null; \
	done; done; echo "oracle sweep: all legality tables and lifecycle audits clean"

# Record → replay → diff-stats conformance over a small grid (mirrors
# the CI trace gate).
trace-gate:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	for bench in x264 ssca2; do for proto in MESI TSO-CC-4-12-3; do \
	  echo "trace gate: $$bench / $$proto"; \
	  $(GO) run ./cmd/tsocc-trace record -bench $$bench -proto $$proto -cores 8 \
	    -o $$tmp/t.trc -stats $$tmp/rec.txt > /dev/null; \
	  $(GO) run ./cmd/tsocc-trace replay -i $$tmp/t.trc -stats $$tmp/rep.txt > /dev/null; \
	  diff $$tmp/rec.txt $$tmp/rep.txt; \
	done; done; echo "trace gate: record/replay stats identical"

# Observability smoke (mirrors the CI obs job): an 8-core canneal run
# and a bounded litmus run each emit a metrics-registry dump and a
# Chrome trace-event timeline; both timelines must be well-formed
# (matched async begin/end — the validator is the same check Perfetto
# applies on load) and both metrics dumps must carry counter and
# histogram series. Then the bounded no-perturbation gate, the obs row
# of the conformance table (obs-on fingerprints equal the obs-off
# reference in every engine × core mode), plus the timeline unit tests
# (golden file, fuzz-lite, early-termination flush).
obs-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	echo "obs smoke: tsocc-sim canneal / 8 cores"; \
	$(GO) run ./cmd/tsocc-sim -bench canneal -cores 8 \
	  -metrics $$tmp/sim-metrics.json -timeline $$tmp/sim-timeline.json > /dev/null; \
	echo "obs smoke: tsocc-litmus / TSO-CC-4-12-3"; \
	$(GO) run ./cmd/tsocc-litmus -iters 10 -proto TSO-CC-4-12-3 \
	  -metrics $$tmp/lit-metrics.json -timeline $$tmp/lit-timeline.json > /dev/null; \
	$(GO) run ./internal/obs/validate $$tmp/sim-timeline.json $$tmp/lit-timeline.json; \
	$(GO) run ./internal/obs/validate -metrics $$tmp/sim-metrics.json $$tmp/lit-metrics.json; \
	$(GO) test -run 'TestObsOnOffBitIdentical' . ; \
	$(GO) test -run 'TestTimeline|TestRegistry' ./internal/obs/; \
	echo "obs smoke: timelines well-formed, metrics populated, on/off bit-identical"

# Scaling smoke (mirrors the CI scale job): the 64-core conformance
# fingerprint — canneal and ssca2 end to end on an 8x8 mesh, crossed
# over engine mode × batched core × checks × obs × faults × trace
# replay (the TestScale64* rows of the conformance table) — plus the
# per-link contention properties (flit-hop conservation, HopDistance/XY
# agreement) at 64, 128 and 256 tiles, and a race-detector leg over the
# contention path's property tests, and the largest machine end to
# end: canneal on TSO-CC and ssca2 on MESI at 256 cores with the
# oracles armed (about 2 s together). Bounded by design; host cost at
# 64 cores is measured by the repository benchmark's `miss64` workload.
scale-smoke:
	$(GO) test -run 'TestScale64' .
	$(GO) test -run 'TestFlitHopConservation|TestHopDistanceMatchesXYRoute|TestLinkTimingIndependentOfCycle' ./internal/mesh/
	$(GO) test -race -run 'TestFlitHopConservation|TestLinkTimingIndependentOfCycle' ./internal/mesh/
	$(GO) run ./cmd/tsocc-sim -cores 256 -bench canneal -checks > /dev/null
	$(GO) run ./cmd/tsocc-sim -cores 256 -bench ssca2 -proto MESI -checks > /dev/null

ci: vet build test inline-check race bench-smoke trace-gate fault-smoke oracle-sweep obs-smoke scale-smoke
