package repro_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/litmus"
	"repro/internal/mesi"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// copies is how many machines each parallel test runs at once, one
// goroutine each, against a sequential reference run. harness.RunGrid
// runs independent machines this way on GOMAXPROCS workers, sharing one
// protocol value and one config value, so two machines must share no
// mutable state: a package-level cache, pool or RNG that leaks between
// them shows up here as a diverged result (and under -race as a race).
const copies = 3

// concurrently runs f(0) … f(copies-1) on their own goroutines and
// returns the lowest-indexed error.
func concurrently(f func(i int) error) error {
	errs := make([]error, copies)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameConcurrently runs `copies` machines at once and requires each to
// reproduce the sequential run's fingerprint want.
func sameConcurrently(want string, run func() (*system.Result, error)) error {
	return concurrently(func(i int) error {
		r, err := run()
		if err != nil {
			return fmt.Errorf("copy %d: %v", i, err)
		}
		if got := fingerprint(r); got != want {
			return fmt.Errorf("copy %d diverged:\n sequential: %s\n concurrent: %s", i, want, got)
		}
		return nil
	})
}

// TestParallelEngineBitIdentical: machines run concurrently on separate
// goroutines — one shared protocol value and config, a freshly
// generated workload each, as RunGrid runs them — must reproduce the
// sequential run bit for bit, for every protocol family and workload,
// crossed with the batched core model.
func TestParallelEngineBitIdentical(t *testing.T) {
	protos := []system.Protocol{
		mesi.New(),
		tsocc.New(config.Basic()),
		tsocc.New(config.C12x3()),
		tsocc.New(config.CCSharedToL2()),
	}
	benches := []string{"canneal", "ssca2"}
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	for _, proto := range protos {
		for _, bench := range benches {
			for _, batched := range []bool{false, true} {
				name := proto.Name() + "/" + bench
				if batched {
					name += "/batched"
				}
				t.Run(name, func(t *testing.T) {
					e := workloads.ByName(bench)
					if e == nil {
						t.Fatalf("unknown benchmark %q", bench)
					}
					cfg := config.Small(4)
					cfg.BatchedCore = batched
					ref, err := system.Run(cfg, proto, e.Gen(p))
					if err != nil {
						t.Fatalf("sequential: %v", err)
					}
					if ref.CheckErr != nil {
						t.Fatalf("sequential: functional check: %v", ref.CheckErr)
					}
					err = sameConcurrently(fingerprint(ref), func() (*system.Result, error) {
						return system.Run(cfg, proto, e.Gen(p))
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestParallelTraceReplayBitIdentical: one recorded trace, replayed by
// several machines at once, reproduces the recording run on every one
// of them — replay reads the trace and never writes it.
func TestParallelTraceReplayBitIdentical(t *testing.T) {
	proto := tsocc.New(config.C12x3())
	e := workloads.ByName("ssca2")
	w := e.Gen(workloads.Params{Threads: 4, Scale: 1, Seed: 3})
	cfg := config.Small(4)
	res, tr, err := system.RunRecorded(cfg, proto, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	replayProto := tsocc.New(config.C12x3())
	err = sameConcurrently(fingerprint(res), func() (*system.Result, error) {
		return system.Replay(config.Small(4), replayProto, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelFaultModesBitIdentical crosses concurrent execution with
// fault injection: for every profile, machines run at once must each
// reproduce the sequential fault-injected run exactly (every injector
// decision stream belongs to its machine).
func TestParallelFaultModesBitIdentical(t *testing.T) {
	proto := tsocc.New(config.C12x3())
	e := workloads.ByName("ssca2")
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	for _, profile := range []string{"jitter", "pressure", "burst", "evict", "reset-storm", "victim", "jitter:rate=200+evict:rate=80"} {
		t.Run(profile, func(t *testing.T) {
			cfg := config.Small(4)
			cfg.FaultProfile = profile
			cfg.FaultSeed = 7
			ref, err := system.Run(cfg, proto, e.Gen(p))
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			err = sameConcurrently(fingerprint(ref), func() (*system.Result, error) {
				return system.Run(cfg, proto, e.Gen(p))
			})
			if err != nil {
				t.Fatalf("%s: %v", profile, err)
			}
		})
	}
}

// sameLitmusConcurrently runs test under proto `copies` times at once
// and requires every run to be TSO-conformant with the sequential
// outcome histogram want.
func sameLitmusConcurrently(test *litmus.Test, proto system.Protocol, iters int, want map[string]int) error {
	return concurrently(func(i int) error {
		res, err := litmus.Run(test, proto, config.Small(4), iters, 42)
		if err != nil {
			return fmt.Errorf("copy %d: %v", i, err)
		}
		if !res.Ok() {
			return fmt.Errorf("copy %d: forbidden outcomes: %v", i, res.Violations)
		}
		if !reflect.DeepEqual(res.Outcomes, want) {
			return fmt.Errorf("copy %d: litmus outcome histograms diverged:\n sequential: %v\n concurrent: %v",
				i, want, res.Outcomes)
		}
		return nil
	})
}

// TestParallelLitmusEveryProtocol drives a litmus subset for EVERY
// registered protocol with several runs at once, asserting memory-model
// conformance (no forbidden outcomes) and agreement with the sequential
// outcome histogram. It is deliberately small, so it stays cheap under
// -race.
func TestParallelLitmusEveryProtocol(t *testing.T) {
	suite := litmus.Suite()
	if len(suite) > 3 {
		suite = suite[:3]
	}
	for _, proto := range coherence.Protocols() {
		for _, test := range suite {
			t.Run(proto.Name()+"/"+test.Name, func(t *testing.T) {
				ref, err := litmus.Run(test, proto, config.Small(4), 10, 42)
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Ok() {
					t.Fatalf("sequential: forbidden outcomes: %v", ref.Violations)
				}
				if err := sameLitmusConcurrently(test, proto, 10, ref.Outcomes); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestParallelLitmusIdentical runs the whole litmus suite with several
// runs at once for both protocol families and requires the exact
// sequential outcome histograms — memory-model observability must not
// change when machines share a host.
func TestParallelLitmusIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("litmus sweep is slow")
	}
	protos := []system.Protocol{mesi.New(), tsocc.New(config.C12x3())}
	for _, proto := range protos {
		for _, test := range litmus.Suite() {
			t.Run(proto.Name()+"/"+test.Name, func(t *testing.T) {
				ref, err := litmus.Run(test, proto, config.Small(4), 20, 42)
				if err != nil {
					t.Fatal(err)
				}
				if !ref.Ok() {
					t.Fatalf("sequential: forbidden outcomes: %v", ref.Violations)
				}
				if err := sameLitmusConcurrently(test, proto, 20, ref.Outcomes); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
