package trace

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// scriptPort is a CorePort whose answers the test scripts: loads are
// refused while rejectLoad is set, every accepted call is logged as
// "kind@cycle", and completions wait until the test fires them on the
// cycle it chooses (before the core's tick, as an L1 would).
type scriptPort struct {
	rejectLoad bool
	accepted   []string
	load       func(uint64)
	store      func()
}

func (p *scriptPort) Load(now sim.Cycle, _ uint64, cb func(uint64)) bool {
	if p.rejectLoad {
		return false
	}
	p.accepted = append(p.accepted, fmt.Sprintf("ld@%d", now))
	p.load = cb
	return true
}

func (p *scriptPort) Store(now sim.Cycle, _, _ uint64, cb func()) bool {
	p.accepted = append(p.accepted, fmt.Sprintf("st@%d", now))
	p.store = cb
	return true
}

func (p *scriptPort) RMW(sim.Cycle, uint64, func(uint64) (uint64, bool), func(uint64)) bool {
	panic("unused")
}

func (p *scriptPort) Fence(sim.Cycle, func()) bool { panic("unused") }

// replayScript replays ops (a halt is appended) on a wbEntries-deep
// write buffer through cycle last, on a wake-set engine: a ticker
// registered ahead of the core calls fire(now) every cycle, as an L1
// fires completions, so each callback resumes the core from the
// engine's clock. It returns the accepted port calls.
func replayScript(t *testing.T, wbEntries int, last sim.Cycle, fire func(*scriptPort, sim.Cycle), ops ...Op) []string {
	t.Helper()
	stream, err := packOps(append(ops, Op{Kind: config.TraceHalt, Instrs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptPort{}
	e := sim.NewEngine(0)
	e.Register(scriptTicker{p, fire})
	e.Register(NewReplayCore(0, stream, p, wbEntries))
	e.RunWindow(last + 1)
	return p.accepted
}

// scriptTicker calls fire every cycle.
type scriptTicker struct {
	p    *scriptPort
	fire func(*scriptPort, sim.Cycle)
}

func (s scriptTicker) Tick(now sim.Cycle)               { s.fire(s.p, now) }
func (s scriptTicker) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

func wantCalls(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("accepted port calls %v, want %v", got, want)
	}
}

// TestReplaySyncGapAnchor: after a synchronous completion (a buffered
// store, a forwarded load) the next op is ready Gap cycles after the
// completing op's own cycle; the first op's Gap is its absolute cycle.
func TestReplaySyncGapAnchor(t *testing.T) {
	got := replayScript(t, 4, 12, func(*scriptPort, sim.Cycle) {},
		Op{Kind: config.TraceStore, Addr: 0x40, Gap: 3, Instrs: 1}, // 3: buffered
		Op{Kind: config.TraceLoad, Addr: 0x40, Gap: 2, Instrs: 1},  // 5: forwarded
		Op{Kind: config.TraceLoad, Addr: 0x80, Gap: 4, Instrs: 1},  // 9: to the port
	)
	// The store drains on the tick after it was buffered.
	wantCalls(t, got, "st@4", "ld@9")
}

// TestReplayAsyncGapAnchor: after an asynchronous completion the next
// op is ready Gap cycles after the callback's cycle, and Gap = 0 issues
// on the callback cycle itself.
func TestReplayAsyncGapAnchor(t *testing.T) {
	fire := func(p *scriptPort, now sim.Cycle) {
		if now == 6 || now == 9 {
			p.load(0)
		}
	}
	got := replayScript(t, 4, 12, fire,
		Op{Kind: config.TraceLoad, Addr: 0x40, Gap: 1, Instrs: 1}, // 1; acked at 6
		Op{Kind: config.TraceLoad, Addr: 0x80, Gap: 0, Instrs: 1}, // 6; acked at 9
		Op{Kind: config.TraceLoad, Addr: 0xc0, Gap: 2, Instrs: 1}, // 11
	)
	wantCalls(t, got, "ld@1", "ld@6", "ld@11")
}

// TestReplayRetriesKeepGapClock: a refused op is retried every cycle,
// and the next op's gap is anchored on the accepting cycle — retries do
// not advance the gap clock. The store's refusal here is a full write
// buffer, the load's a busy port.
func TestReplayRetriesKeepGapClock(t *testing.T) {
	fire := func(p *scriptPort, now sim.Cycle) {
		p.rejectLoad = now < 10
		switch now {
		case 5:
			p.store()
		case 12:
			p.load(0)
		}
	}
	got := replayScript(t, 1, 16, fire,
		Op{Kind: config.TraceStore, Addr: 0x40, Gap: 1, Instrs: 1}, // 1: buffered
		Op{Kind: config.TraceStore, Addr: 0x80, Gap: 1, Instrs: 1}, // 2-4: full; 5: buffered
		Op{Kind: config.TraceLoad, Addr: 0xc0, Gap: 2, Instrs: 1},  // 7-9: busy; 10: issued, acked at 12
		Op{Kind: config.TraceLoad, Addr: 0x100, Gap: 3, Instrs: 1}, // 15
	)
	wantCalls(t, got, "st@2", "st@6", "ld@10", "ld@15")
}
