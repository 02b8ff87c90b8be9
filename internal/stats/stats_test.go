package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("value = %d, want 42", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on negative Add")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value = %T, want string", r)
		}
		for _, want := range []string{"core0.loads", "-1", "7"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic message %q missing %q", msg, want)
			}
		}
	}()
	var c Counter
	c.SetName("core0.loads")
	c.Add(7)
	c.Add(-1)
}

func TestLatency(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, v := range []int64{10, 20, 30} {
		l.Observe(v)
	}
	if l.Count() != 3 || l.Sum() != 60 {
		t.Fatalf("count=%d sum=%d", l.Count(), l.Sum())
	}
	if l.Mean() != 20 {
		t.Fatalf("mean = %v, want 20", l.Mean())
	}
	if l.Min() != 10 || l.Max() != 30 {
		t.Fatalf("min=%d max=%d", l.Min(), l.Max())
	}
}

func TestLatencyMinMaxProperty(t *testing.T) {
	check := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		var l Latency
		min, max := vals[0], vals[0]
		for _, v := range vals {
			l.Observe(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return l.Min() == min && l.Max() == max && l.Count() == int64(len(vals))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
	// Non-positive values are ignored.
	if g := Geomean([]float64{-1, 0, 2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean ignoring non-positives = %v, want 4", g)
	}
}

func TestGeomeanScaleInvariance(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v%100) + 1
			scaled[i] = xs[i] * 3
		}
		return math.Abs(Geomean(scaled)-3*Geomean(xs)) < 1e-9*Geomean(scaled)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "colA", "colB")
	tb.AddRow("first", "1", "2")
	tb.AddFloats("second", 2, 1.5, 2.25)
	out := tb.String()
	for _, want := range []string{"== Demo ==", "colA", "colB", "first", "second", "1.50", "2.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow("a-very-long-label", "1")
	tb.AddRow("x", "100000")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}

// SortedKeys returns the sorted keys of a string-keyed map.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
