package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a race-safe metrics registry: named counters, gauges,
// and histograms, creatable on first use and snapshot-able at any
// point. It absorbs (and extends) the engine's per-job Counters maps
// via AddCounters. A nil *Registry is the disabled registry: it hands
// out nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// DefaultBuckets are the histogram bucket upper bounds used when none
// are given: roughly logarithmic, wide enough for both per-task cost
// units and record counts.
var DefaultBuckets = []float64{10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// Histogram returns the named histogram, creating it with the given
// strictly-increasing bucket upper bounds (DefaultBuckets if none) on
// first use. Later calls ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefaultBuckets
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// AddCounters merges a name→delta map (e.g. a mapreduce.Counters) into
// the registry's counters.
func (r *Registry) AddCounters(c map[string]int64) {
	if r == nil {
		return
	}
	for name, v := range c {
		r.Counter(name).Add(v)
	}
}

// Counter is a monotonically increasing int64. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative-style buckets
// (Prometheus semantics: bucket i counts observations ≤ bounds[i];
// the final implicit bucket is +Inf). Nil-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    float64
	n      uint64
	// min and max are the extreme observations: Quantile's outer edges.
	min, max float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// CounterValue, GaugeValue and HistogramValue are snapshot entries.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram in a snapshot. Counts are per-bucket
// (not cumulative); Bounds[i] is bucket i's upper bound and the last
// Counts entry is the +Inf bucket. Min and Max are the extreme
// observations (0 when empty).
type HistogramValue struct {
	Name     string
	Bounds   []float64
	Counts   []uint64
	Sum      float64
	Count    uint64
	Min, Max float64
}

// Mean returns the mean observation, or 0 when empty.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts, interpolating linearly within the containing bucket
// (Prometheus histogram_quantile semantics) narrowed to the observed
// range: a bucket spans [max(lower bound, Min), min(upper bound, Max)],
// so every answer lies in [Min, Max], q = 0 is Min, q = 1 is Max and an
// answer in the +Inf bucket is at most Max. Returns 0 when the
// histogram is empty.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo, hi := h.Min, h.Max
		if i > 0 {
			lo = max(lo, h.Bounds[i-1])
		}
		if i < len(h.Bounds) {
			hi = min(hi, h.Bounds[i])
		}
		f := (rank - float64(cum-c)) / float64(c)
		if f >= 1 {
			return hi
		}
		return min(lo+(hi-lo)*f, hi)
	}
	return h.Max
}

// Snapshot is a point-in-time copy of the registry, each section
// sorted by name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{name, c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{name, g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
			Min:    h.min,
			Max:    h.max,
		}
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
