package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

func namedCounter(name string, v int64) *stats.Counter {
	var c stats.Counter
	c.SetName(name)
	c.Add(v)
	return &c
}

// TestRegistryCounterMerge: same-named counters (one per machine when a
// registry accumulates over several runs) sum at dump time; CounterNames stays per-registration so
// the unnamed-counter test can see every instance.
func TestRegistryCounterMerge(t *testing.T) {
	r := obs.NewRegistry()
	r.RegisterCounter(namedCounter("mesh.flits", 3), namedCounter("mesh.flits", 4))
	r.RegisterCounter(namedCounter("l1.hits", 10))
	r.RegisterCounter(nil) // ignored

	got := r.Counters()
	want := []obs.MetricValue{{Name: "l1.hits", Value: 10}, {Name: "mesh.flits", Value: 7}}
	if len(got) != len(want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Counters()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if names := r.CounterNames(); len(names) != 3 {
		t.Errorf("CounterNames() = %v, want one entry per registration", names)
	}
}

// TestRegistryGaugeMax: same-named gauges keep the maximum (per-run
// high-water marks dump as the overall high-water mark).
func TestRegistryGaugeMax(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("q.depth_max", func() int64 { return 5 })
	r.Gauge("q.depth_max", func() int64 { return 9 })
	r.Gauge("q.depth_max", func() int64 { return 2 })
	g := r.Gauges()
	if len(g) != 1 || g[0].Value != 9 {
		t.Fatalf("Gauges() = %v, want [{q.depth_max 9}]", g)
	}
}

// TestHistMergeQuantiles: same-named histograms (one per owning
// component) merge at dump time; quantile upper bounds follow the power-of-two
// bucket boundaries and clamp to the observed max.
func TestHistMergeQuantiles(t *testing.T) {
	r := obs.NewRegistry()
	a := r.NewHist("lat")
	b := r.NewHist("lat")
	for i := 0; i < 50; i++ {
		a.Observe(3) // bucket 2: [2,4)
	}
	b.Observe(0)    // bucket 0: exactly 0
	b.Observe(-7)   // clamps to 0
	b.Observe(1000) // bucket 10: [512,1024)

	var nilHist *obs.Hist
	nilHist.Observe(42) // nil receiver is a no-op

	s := r.HistSnapshotFor("lat")
	if s.Count != 53 || s.Sum != 150+1000 || s.Min != 0 || s.Max != 1000 {
		t.Fatalf("merged snapshot = %+v", s)
	}
	if m := s.Mean(); m < 21.6 || m > 21.8 {
		t.Errorf("Mean() = %v, want ~21.7", m)
	}
	// The median observation is a 3, in bucket [2,4): upper bound 3.
	if q := s.Quantile(0.50); q != 3 {
		t.Errorf("Quantile(0.5) = %d, want 3", q)
	}
	// The 99th-percentile rank lands on the single 1000 in [512,1024):
	// the bucket top (1023) clamps to the observed max.
	if q := s.Quantile(0.99); q != 1000 {
		t.Errorf("Quantile(0.99) = %d, want 1000", q)
	}
	if q := s.Quantile(0.0); q != 0 {
		t.Errorf("Quantile(0) = %d, want 0 (zero bucket)", q)
	}

	empty := r.HistSnapshotFor("no.such.series")
	if empty.Count != 0 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Errorf("missing series should snapshot as zero, got %+v", empty)
	}
}

// TestRegistryWriteJSON: the JSON dump parses and carries every series
// under its section with the documented field names.
func TestRegistryWriteJSON(t *testing.T) {
	r := obs.NewRegistry()
	r.RegisterCounter(namedCounter("c.one", 1))
	r.Gauge("g.one", func() int64 { return 7 })
	r.NewHist("h.one").Observe(8)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
		Hists    map[string]struct {
			Count   int64   `json:"count"`
			Sum     int64   `json:"sum"`
			Mean    float64 `json:"mean"`
			P99     int64   `json:"p99_upper"`
			Buckets []int64 `json:"pow2_buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Counters["c.one"] != 1 || d.Gauges["g.one"] != 7 {
		t.Errorf("scalar series wrong: %+v", d)
	}
	h, ok := d.Hists["h.one"]
	if !ok || h.Count != 1 || h.Sum != 8 || h.P99 != 8 {
		t.Errorf("histogram series wrong: %+v", h)
	}
	// 8 has bit length 4: buckets 0..4 present after trailing trim.
	if len(h.Buckets) != 5 || h.Buckets[4] != 1 {
		t.Errorf("pow2_buckets = %v, want observation in bucket 4", h.Buckets)
	}
}

// TestRegistryWriteText: one line per series with the section prefix.
func TestRegistryWriteText(t *testing.T) {
	r := obs.NewRegistry()
	r.RegisterCounter(namedCounter("c.one", 2))
	r.Gauge("g.one", func() int64 { return 3 })
	r.NewHist("h.one").Observe(4)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter c.one", "gauge   g.one", "hist    h.one", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}

// TestCoreStalls: NewCoreStalls registers one series per taxonomy
// reason under the prefix, episodes land in the right series, and a
// nil *CoreStalls ignores observations (the disabled hot path).
func TestCoreStalls(t *testing.T) {
	r := obs.NewRegistry()
	s := r.NewCoreStalls("core3")
	s.Observe(obs.StallWBFull, 12)
	s.Observe(obs.StallWBFull, 4)
	s.Observe(obs.StallMissOutstanding, 90)
	s.Observe(obs.StallNone, 1) // out-of-range sentinel: ignored

	var nilStalls *obs.CoreStalls
	nilStalls.Observe(obs.StallPortBusy, 5)

	wb := r.HistSnapshotFor("core3.stall.wb_full")
	if wb.Count != 2 || wb.Sum != 16 {
		t.Errorf("wb_full = %+v, want 2 episodes / 16 cycles", wb)
	}
	miss := r.HistSnapshotFor("core3.stall.miss_outstanding")
	if miss.Count != 1 || miss.Sum != 90 {
		t.Errorf("miss_outstanding = %+v, want 1 episode / 90 cycles", miss)
	}
	// Every taxonomy reason registers, observed or not.
	for _, reason := range []string{"port_busy", "wb_full", "fence_drain", "miss_outstanding", "batch_interior"} {
		found := false
		for _, h := range r.Hists() {
			if h.Name == "core3.stall."+reason {
				found = true
			}
		}
		if !found {
			t.Errorf("series core3.stall.%s not registered", reason)
		}
	}
}
