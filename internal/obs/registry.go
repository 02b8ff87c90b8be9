package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/stats"
)

// histBuckets is the fixed bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. bucket 0 is exactly 0 and bucket i>0 spans
// [2^(i-1), 2^i). 64-bit values need at most Len64 = 64.
const histBuckets = 65

// Hist is a fixed-bucket power-of-two histogram. No floats touch the
// observe path and a nil receiver ignores observations, so hot-path
// call sites cost one branch when disabled. A Hist must be observed
// from a single goroutine (the one running its machine); the registry
// merges same-named instances only at dump time, after the run.
type Hist struct {
	name    string
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Observe records v (negative values clamp to 0).
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	h.buckets[b]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the sum of observed values.
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry collects the run's metric series. Registration happens
// single-threaded at machine-build time; observation happens on the
// goroutine running the machine; reads (dumps) happen after the run.
// The mutex covers registration only — post-run reads race with
// nothing.
type Registry struct {
	mu       sync.Mutex
	counters []*stats.Counter
	gauges   []gaugeEntry
	hists    []*Hist
}

type gaugeEntry struct {
	name string
	fn   func() int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCounter adds already-owned stats.Counters to the dump set.
// The counter's own name (stats.Counter.SetName) is the series name;
// same-named counters (one per machine when a registry accumulates over
// several runs) are summed at dump time. Nil counters are ignored.
func (r *Registry) RegisterCounter(cs ...*stats.Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		if c != nil {
			r.counters = append(r.counters, c)
		}
	}
}

// Gauge registers a named value read at dump time (after the run), for
// state that is cheaper to inspect once than to track continuously
// (queue high-water marks, link occupancy).
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, gaugeEntry{name: name, fn: fn})
}

// NewHist registers and returns a histogram. Each call returns a fresh
// instance — every L1 owns one per latency series — and same-named
// instances merge at dump time.
func (r *Registry) NewHist(name string) *Hist {
	h := &Hist{name: name}
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// MetricValue is one named scalar in a dump snapshot.
type MetricValue struct {
	Name  string
	Value int64
}

// HistSnapshot is one merged histogram in a dump snapshot.
type HistSnapshot struct {
	Name  string
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	// Buckets[i] counts values v with bits.Len64(v) == i: bucket 0 is
	// exactly 0, bucket i>0 spans [2^(i-1), 2^i). Trailing empty
	// buckets are trimmed.
	Buckets []int64
}

// Mean reports the arithmetic mean observation (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile reports an upper bound for the q-quantile (q in [0,1]) from
// the bucket boundaries: the top of the bucket holding the q-th
// observation, clamped to Max.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			top := int64(1)<<uint(i) - 1
			if top > s.Max {
				top = s.Max
			}
			return top
		}
	}
	return s.Max
}

// Counters returns the registered counters as name/value pairs,
// same-named counters summed, sorted by name.
func (r *Registry) Counters() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	sums := make(map[string]int64, len(r.counters))
	for _, c := range r.counters {
		sums[c.Name()] += c.Value()
	}
	return sortedValues(sums)
}

// CounterNames returns the name of every registered counter, one entry
// per registration (not deduplicated), for the no-unnamed-counters
// test.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.counters))
	for i, c := range r.counters {
		names[i] = c.Name()
	}
	return names
}

// Gauges evaluates the registered gauges, sorted by name; same-named
// gauges (one per machine when a registry accumulates over several
// runs) keep the maximum.
func (r *Registry) Gauges() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	vals := make(map[string]int64, len(r.gauges))
	for _, g := range r.gauges {
		v := g.fn()
		if old, ok := vals[g.name]; !ok || v > old {
			vals[g.name] = v
		}
	}
	return sortedValues(vals)
}

// Hists returns the registered histograms merged by name, sorted.
func (r *Registry) Hists() []HistSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := make(map[string]*HistSnapshot)
	for _, h := range r.hists {
		s, ok := merged[h.name]
		if !ok {
			s = &HistSnapshot{Name: h.name, Buckets: make([]int64, histBuckets)}
			merged[h.name] = s
		}
		if h.count > 0 {
			if s.Count == 0 || h.min < s.Min {
				s.Min = h.min
			}
			if h.max > s.Max {
				s.Max = h.max
			}
		}
		s.Count += h.count
		s.Sum += h.sum
		for i, n := range h.buckets {
			s.Buckets[i] += n
		}
	}
	out := make([]HistSnapshot, 0, len(merged))
	for _, s := range merged {
		last := 0
		for i, n := range s.Buckets {
			if n != 0 {
				last = i + 1
			}
		}
		s.Buckets = s.Buckets[:last]
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistSnapshotFor returns the merged snapshot for one series name
// (zero-valued if the series does not exist).
func (r *Registry) HistSnapshotFor(name string) HistSnapshot {
	for _, s := range r.Hists() {
		if s.Name == name {
			return s
		}
	}
	return HistSnapshot{Name: name}
}

func sortedValues(m map[string]int64) []MetricValue {
	out := make([]MetricValue, 0, len(m))
	for n, v := range m {
		out = append(out, MetricValue{Name: n, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the registry as aligned name/value text: counters,
// then gauges, then histograms with count/sum/mean/p50/p99/max.
func (r *Registry) WriteText(w io.Writer) error {
	for _, c := range r.Counters() {
		if _, err := fmt.Fprintf(w, "counter %-44s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range r.Gauges() {
		if _, err := fmt.Fprintf(w, "gauge   %-44s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range r.Hists() {
		if _, err := fmt.Fprintf(w, "hist    %-44s count=%d sum=%d mean=%.2f p50<=%d p99<=%d max=%d\n",
			h.Name, h.Count, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max); err != nil {
			return err
		}
	}
	return nil
}

type jsonHist struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	P50     int64   `json:"p50_upper"`
	P99     int64   `json:"p99_upper"`
	Buckets []int64 `json:"pow2_buckets"`
}

type jsonDump struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]jsonHist `json:"histograms"`
}

// WriteJSON renders the registry as one JSON document (map keys are
// emitted sorted by encoding/json, so dumps are diffable).
func (r *Registry) WriteJSON(w io.Writer) error {
	d := jsonDump{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]jsonHist{},
	}
	for _, c := range r.Counters() {
		d.Counters[c.Name] = c.Value
	}
	for _, g := range r.Gauges() {
		d.Gauges[g.Name] = g.Value
	}
	for _, h := range r.Hists() {
		d.Histograms[h.Name] = jsonHist{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Mean: h.Mean(), P50: h.Quantile(0.50), P99: h.Quantile(0.99),
			Buckets: h.Buckets,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
