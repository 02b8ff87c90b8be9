package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

type countTicker struct {
	ticks int
	limit int
}

func (c *countTicker) Tick(now Cycle)           { c.ticks++ }
func (c *countTicker) NextWake(now Cycle) Cycle { return now + 1 }
func (c *countTicker) Done() bool               { return c.ticks >= c.limit }

func TestEngineRunsUntilDone(t *testing.T) {
	e := NewEngine(1000)
	ct := &countTicker{limit: 42}
	e.Register(ct)
	cycles, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 42 || ct.ticks != 42 {
		t.Fatalf("cycles=%d ticks=%d, want 42", cycles, ct.ticks)
	}
}

func TestEngineCycleLimit(t *testing.T) {
	e := NewEngine(10)
	e.Register(&countTicker{limit: 100})
	_, err := e.Run()
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
}

func TestEngineNoDoners(t *testing.T) {
	e := NewEngine(10)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected error with no completion conditions")
	}
}

func TestEngineMultipleDoners(t *testing.T) {
	e := NewEngine(1000)
	a := &countTicker{limit: 10}
	b := &countTicker{limit: 30}
	e.Register(a)
	e.Register(b)
	cycles, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 30 {
		t.Fatalf("cycles = %d, want 30 (slowest doner)", cycles)
	}
}

type orderTicker struct {
	id    int
	trace *[]int
}

func (o *orderTicker) Tick(now Cycle) {
	if now == 1 {
		*o.trace = append(*o.trace, o.id)
	}
}

func (o *orderTicker) NextWake(Cycle) Cycle { return WakeNever }

func TestEngineTickOrderIsRegistrationOrder(t *testing.T) {
	e := NewEngine(10)
	var trace []int
	for i := 0; i < 5; i++ {
		e.Register(&orderTicker{id: i, trace: &trace})
	}
	e.RunFor(1)
	for i, id := range trace {
		if id != i {
			t.Fatalf("tick order %v, want ascending", trace)
		}
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine(0)
	ct := &countTicker{limit: 1 << 30}
	e.Register(ct)
	e.RunFor(17)
	if e.Now() != 17 || ct.ticks != 17 {
		t.Fatalf("now=%d ticks=%d, want 17", e.Now(), ct.ticks)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(54321)
	same := 0
	a = NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 17, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		size := int(n%32) + 1
		p := NewRNG(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == size
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	check := func(seed uint64) bool {
		f := NewRNG(seed).Float64()
		return f >= 0 && f < 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Fork()
	// The fork advances the parent; two forks from identical parents
	// must themselves be identical (deterministic).
	p2 := NewRNG(99)
	c2 := p2.Fork()
	for i := 0; i < 100; i++ {
		if child.Uint64() != c2.Uint64() {
			t.Fatal("fork not deterministic")
		}
	}
}

func TestRNGInt63nBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(97)
		if v < 0 || v >= 97 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}
