// Package metrics is the observability layer of the simulator: a
// deterministic counters/gauges/histograms registry plus a Chrome
// trace_event-format timeline exporter (trace.go).
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Model code holds no counters: each layer
//     keeps one plain count per fact, registry or not, and folds what it
//     counted into named counters at the end of a run (Fold). Histograms,
//     gauges and tracks are nil-safe: a nil *Registry hands out nil ones,
//     and Set/Observe on a nil instrument is a single predictable branch.
//     Default runs stay byte-identical — metrics never alter simulated
//     behaviour, only record it.
//  2. Zero allocation on the hot path. Histograms are looked up (and
//     allocated) once, at model construction; Observe is an atomic
//     operation on preallocated state with fixed power-of-two buckets, so
//     observation never allocates. Model code touches counters only through
//     Fold, once per run.
//  3. Deterministic output. A Snapshot lists instruments sorted by name.
//     Counter sums, gauge maxima, and histogram merges all commute, so a
//     registry shared by parallel sweep jobs (one engine per job) snapshots
//     identically regardless of scheduling.
//
// Concurrency: instrument registration takes a mutex; instrument updates
// are lock-free atomics. One registry may serve many engines running on
// different goroutines.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of instruments and (optionally) trace tracks.
// The zero value is not usable; call New. A nil *Registry is the disabled
// registry: it hands out nil instruments and nil tracks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracing  bool
	tracks   []*Track
}

// New creates an empty registry with tracing disabled.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// EnableTracing turns on timeline recording: NewTrack returns live tracks
// instead of nil. Call before the simulations of interest run.
func (r *Registry) EnableTracing() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracing = true
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry (and nil counters no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Tally is one plain count a model layer keeps, under the name of the
// registry counter it folds into.
type Tally struct {
	Name  string
	Total uint64
}

// Fold adds to each tally's counter what its total gained since the last
// fold. folded holds the totals as of that fold, one slot per tally in
// order, and is advanced to the new totals. Every counter is registered,
// even one that gains nothing, so a layer that folds at construction lists
// its counters at zero until it runs. No-op on a nil registry.
func (r *Registry) Fold(folded []uint64, tallies ...Tally) {
	if r == nil {
		return
	}
	for i, t := range tallies {
		r.Counter(t.Name).Add(t.Total - folded[i])
		folded[i] = t.Total
	}
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Add adds n. No-op on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 level that only rises: SetMax keeps the maximum,
// which commutes and is therefore the right merge when parallel jobs share
// one gauge.
type Gauge struct{ bits atomic.Uint64 }

// SetMax stores v if it exceeds the current value. No-op on nil.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reports the current level (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count: bucket 0 holds values <= 0, bucket
// i holds values in [2^(i-1), 2^i) for i >= 1, and the last bucket is
// unbounded above. 64 buckets cover the full non-negative int64 range.
const histBuckets = 64

// Histogram is a fixed-bucket power-of-two histogram of int64 samples
// (negative samples clamp into bucket 0). Observation is allocation-free.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if old <= v || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old >= v || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count reports the number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram in a snapshot. Buckets are reported
// sparsely as {upper bound exponent, count} pairs to keep snapshots small.
type HistogramPoint struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Mean    float64       `json:"mean"`
	Buckets []BucketPoint `json:"buckets,omitempty"`
}

// BucketPoint is one occupied histogram bucket: Count samples with values
// in [2^(Pow2-1), 2^Pow2) (Pow2 == 0: values <= 0).
type BucketPoint struct {
	Pow2  int    `json:"pow2"`
	Count uint64 `json:"count"`
}

// Snapshot is a deterministic (name-sorted) dump of every instrument.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot captures the current instrument values, sorted by name. Safe to
// call while updates continue (values are read atomically, instrument by
// instrument). Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		p := HistogramPoint{Name: name, Count: h.count.Load(), Sum: h.sum.Load()}
		if p.Count == 0 {
			p.Min, p.Max = 0, 0
		} else {
			p.Min, p.Max = h.min.Load(), h.max.Load()
			p.Mean = float64(p.Sum) / float64(p.Count)
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				p.Buckets = append(p.Buckets, BucketPoint{Pow2: i, Count: n})
			}
		}
		s.Histograms = append(s.Histograms, p)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
