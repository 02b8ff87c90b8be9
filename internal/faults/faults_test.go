package faults

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/coherence"
	"repro/internal/sim"
)

func parseOne(t *testing.T, spec string) Profile {
	t.Helper()
	ps, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	if len(ps) != 1 {
		t.Fatalf("Parse(%q) = %d components, want 1", spec, len(ps))
	}
	return ps[0]
}

func TestParseDefaults(t *testing.T) {
	cases := []struct {
		spec string
		want Profile
	}{
		{"jitter", Profile{Name: Jitter, Rate: 200, MaxDelay: 6}},
		{"pressure", Profile{Name: Pressure, Rate: 150, StallCap: 3}},
		{"burst", Profile{Name: Burst, Rate: 125, MaxDelay: 8, WindowLog: 6}},
		{"evict", Profile{Name: Evict, Rate: 40}},
		{"reset-storm", Profile{Name: ResetStorm, Rate: 60}},
		{"victim", Profile{Name: Victim, Rate: 250, MaxDelay: 12}},
	}
	for _, c := range cases {
		if got := parseOne(t, c.spec); got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseParams(t *testing.T) {
	p := parseOne(t, "jitter:rate=500,delay=10")
	if p.Rate != 500 || p.MaxDelay != 10 {
		t.Fatalf("got %+v", p)
	}
	// Out-of-range values clamp instead of erroring (fuzz-friendliness).
	p = parseOne(t, "pressure:rate=99999,cap=0")
	if p.Rate != 1000 || p.StallCap != 1 {
		t.Fatalf("clamping: got %+v", p)
	}
}

func TestParseComposite(t *testing.T) {
	ps, err := Parse("jitter:rate=300+evict:rate=80")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Name != Jitter || ps[0].Rate != 300 || ps[1].Name != Evict || ps[1].Rate != 80 {
		t.Fatalf("got %+v", ps)
	}
	// Comma separation works too: a bare name token starts a new
	// component, key=val tokens attach to the most recent one.
	ps, err = Parse("burst,rate=400,victim,delay=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Rate != 400 || ps[1].Name != Victim || ps[1].MaxDelay != 3 {
		t.Fatalf("got %+v", ps)
	}
	in, err := New("jitter+victim", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !in.MeshActive() || !in.VictimActive() || in.PortActive() {
		t.Fatalf("composite activity wrong: %+v", in.profs)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "jitter:rate", "jitter:rate=abc", "jitter:frobs=3",
		"jitter+jitter", "rate=5", "evict:window=4", "pressure:delay=3",
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q): expected error", spec)
		}
	}
	if _, err := Parse("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error should name the unknown profile: %v", err)
	}
	// Key errors must name both the profile and the offending key.
	_, err := Parse("jitter+evict:delay=4")
	if err == nil || !strings.Contains(err.Error(), `"evict"`) || !strings.Contains(err.Error(), `"delay"`) {
		t.Fatalf("error should name profile and key: %v", err)
	}
}

// TestMeshDelayDeterministic: two injectors with the same (spec, seed)
// given the same delivery stream produce identical outputs; a different
// seed produces a different stream (with overwhelming probability at
// rate=1000 sample sizes).
func TestMeshDelayDeterministic(t *testing.T) {
	mk := func(seed uint64) *Injector {
		in, err := New("jitter:rate=400,delay=8", seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := mk(1), mk(1), mk(2)
	var diff bool
	for i := 0; i < 500; i++ {
		now := sim.Cycle(i)
		at := now + 3
		src := coherence.NodeID(i % 4)
		dst := coherence.NodeID((i + 1) % 4)
		da := a.MeshDelay(now, at, src, dst)
		if db := b.MeshDelay(now, at, src, dst); db != da {
			t.Fatalf("same-seed divergence at %d: %d vs %d", i, da, db)
		}
		if dc := c.MeshDelay(now, at, src, dst); dc != da {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 1 and 2 produced identical delay streams")
	}
}

// TestMeshDelayFIFO: for any delivery stream with non-decreasing
// nominal times on one (src,dst) pair, injected outputs never reorder.
func TestMeshDelayFIFO(t *testing.T) {
	for _, spec := range []string{"jitter:rate=900,delay=32", "burst:rate=900,delay=16,window=4"} {
		check := func(seed uint64, gaps []uint8) bool {
			in, err := New(spec, seed)
			if err != nil {
				return false
			}
			at := sim.Cycle(1)
			last := sim.Cycle(0)
			for _, g := range gaps {
				at += sim.Cycle(g % 8)
				out := in.MeshDelay(at-1, at, 3, 7)
				if out < at || out < last {
					return false
				}
				last = out
			}
			return true
		}
		if err := quick.Check(check, nil); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

// TestMeshDelayBounded: jitter never adds more than MaxDelay beyond the
// FIFO clamp.
func TestMeshDelayBounded(t *testing.T) {
	in, err := New("jitter:rate=1000,delay=5", 9)
	if err != nil {
		t.Fatal(err)
	}
	last := sim.Cycle(0)
	for i := 0; i < 200; i++ {
		at := sim.Cycle(10 * (i + 1))
		out := in.MeshDelay(at-1, at, 0, 1)
		hi := at + 5
		if last > hi {
			hi = last
		}
		if out < at || out > hi {
			t.Fatalf("delivery %d: out=%d not in [%d, %d]", i, out, at, hi)
		}
		last = out
	}
}

// TestTxStallBudget: one message is never stalled more than StallCap
// times, even at rate 1000.
func TestTxStallBudget(t *testing.T) {
	in, err := New("pressure:rate=1000,cap=3", 5)
	if err != nil {
		t.Fatal(err)
	}
	hook := in.TxStall(0)
	var m coherence.Msg
	stalls := 0
	for i := 0; i < 50; i++ {
		if hook(&m) {
			stalls++
		}
	}
	if stalls != 3 {
		t.Fatalf("stalls = %d, want exactly StallCap=3 at rate 1000", stalls)
	}
}

// fakePort accepts everything and counts calls.
type fakePort struct{ loads, stores, rmws, fences int }

func (f *fakePort) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	f.loads++
	cb(0)
	return true
}
func (f *fakePort) Store(now sim.Cycle, addr, val uint64, cb func()) bool {
	f.stores++
	cb()
	return true
}
func (f *fakePort) RMW(now sim.Cycle, addr uint64, fn func(uint64) (uint64, bool), cb func(uint64)) bool {
	f.rmws++
	cb(0)
	return true
}
func (f *fakePort) Fence(now sim.Cycle, cb func()) bool {
	f.fences++
	cb()
	return true
}

// TestPortNeverDeclinesStores: the pressure wrapper must pass stores
// through untouched (see the Port type comment for the deadlock
// argument) and must accept any load within StallCap+1 attempts.
func TestPortNeverDeclinesStores(t *testing.T) {
	in, err := New("pressure:rate=1000,cap=2", 11)
	if err != nil {
		t.Fatal(err)
	}
	inner := &fakePort{}
	p := in.WrapPort(0, inner)
	for i := 0; i < 100; i++ {
		if !p.Store(sim.Cycle(i), 8, 1, func() {}) {
			t.Fatal("store declined")
		}
	}
	if inner.stores != 100 {
		t.Fatalf("stores reaching inner = %d, want 100", inner.stores)
	}
	// rate=1000 declines every roll, so each load takes exactly
	// StallCap declines then a forced accept.
	accepted := 0
	attempts := 0
	for accepted < 10 {
		attempts++
		if attempts > 10*(2+1) {
			t.Fatalf("loads starved: %d accepts in %d attempts", accepted, attempts)
		}
		if p.Load(sim.Cycle(attempts), 16, func(uint64) {}) {
			accepted++
		}
	}
	if inner.loads != accepted {
		t.Fatalf("inner.loads = %d, want %d", inner.loads, accepted)
	}
}

// TestDirectoryHooksDeterministic: the evict / reset-storm / victim
// hooks are pure functions of (seed, node, counter) — same inputs, same
// decision stream; different seeds diverge.
func TestDirectoryHooksDeterministic(t *testing.T) {
	mk := func(seed uint64) *Injector {
		in, err := New("evict:rate=500+reset-storm:rate=500+victim:rate=500,delay=8", seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := mk(4), mk(4), mk(5)
	ea, eb, ec := a.EvictHook(1), b.EvictHook(1), c.EvictHook(1)
	ra, rb := a.ResetHook(3), b.ResetHook(3)
	da, db := a.AckDelay(2), b.AckDelay(2)
	var diff bool
	for i := 0; i < 500; i++ {
		va := ea()
		if vb := eb(); vb != va {
			t.Fatalf("evict decision %d diverged", i)
		}
		if ec() != va {
			diff = true
		}
		if ra() != rb() {
			t.Fatalf("reset decision %d diverged", i)
		}
		if da() != db() {
			t.Fatalf("ack-delay decision %d diverged", i)
		}
	}
	if !diff {
		t.Fatal("seeds 4 and 5 produced identical evict streams")
	}
}

// TestAckDelayBounded: victim ack delays stay in [0, MaxDelay].
func TestAckDelayBounded(t *testing.T) {
	in, err := New("victim:rate=1000,delay=5", 7)
	if err != nil {
		t.Fatal(err)
	}
	d := in.AckDelay(0)
	hit := false
	for i := 0; i < 300; i++ {
		v := d()
		if v < 1 || v > 5 {
			t.Fatalf("decision %d: delay %d outside [1,5] at rate 1000", i, v)
		}
		hit = true
	}
	if !hit {
		t.Fatal("no delays at rate 1000")
	}
}

// TestWindowGate: SetWindow restricts injection to counter values in
// [lo, hi); outside it, decisions behave as if they rolled "no fault",
// and MaxCounter still tracks the full decision space.
func TestWindowGate(t *testing.T) {
	mk := func() *Injector {
		in, err := New("evict:rate=1000", 9)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	full := mk()
	h := full.EvictHook(0)
	for i := 0; i < 100; i++ {
		if !h() {
			t.Fatalf("decision %d: rate=1000 should always fire unwindowed", i)
		}
	}
	if full.MaxCounter() != 100 {
		t.Fatalf("MaxCounter = %d, want 100", full.MaxCounter())
	}

	win := mk()
	win.SetWindow(10, 20)
	h = win.EvictHook(0)
	fired := 0
	for i := 0; i < 100; i++ {
		if h() {
			fired++
		}
	}
	// Counters start at 1, so [10,20) admits counters 10..19.
	if fired != 10 {
		t.Fatalf("windowed fires = %d, want 10", fired)
	}
	if win.MaxCounter() != 100 {
		t.Fatalf("windowed MaxCounter = %d, want 100 (tracking ignores the window)", win.MaxCounter())
	}

	// hi=0 means unbounded.
	open := mk()
	open.SetWindow(0, 0)
	h = open.EvictHook(0)
	if !h() {
		t.Fatal("SetWindow(0, 0) should leave injection unbounded")
	}
}

// TestPortDeterministic: same (seed, core) port wrappers make identical
// decline decisions.
func TestPortDeterministic(t *testing.T) {
	mk := func(seed uint64) *Port {
		in, err := New("pressure:rate=300", seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.WrapPort(2, &fakePort{})
	}
	a, b := mk(3), mk(3)
	for i := 0; i < 400; i++ {
		ra := a.Load(sim.Cycle(i), 8, func(uint64) {})
		rb := b.Load(sim.Cycle(i), 8, func(uint64) {})
		if ra != rb {
			t.Fatalf("decision %d diverged", i)
		}
	}
}
