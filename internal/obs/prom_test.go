package obs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestWritePrometheusGolden pins the exact text exposition output:
// name sanitization, NaN/±Inf rendering, cumulative buckets, and the
// stable counters→gauges→histograms ordering (each section sorted by
// name). Any byte-level drift here breaks downstream scrapers and the
// chaos gate's file comparisons, so this is a full-output match, not a
// substring check.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("job2.blocks_resolved").Add(12)
	r.Counter("weird name!").Add(3)
	r.Gauge("g.inf").Set(math.Inf(1))
	r.Gauge("g.nan").Set(math.NaN())
	r.Gauge("g.neginf").Set(math.Inf(-1))
	r.Gauge("g.plain").Set(2.5)
	h := r.Histogram("task_cost", 0.5, 10)
	h.Observe(0.25)
	h.Observe(5)
	h.Observe(100)

	const want = `# TYPE job2_blocks_resolved counter
job2_blocks_resolved 12
# TYPE weird_name_ counter
weird_name_ 3
# TYPE g_inf gauge
g_inf +Inf
# TYPE g_nan gauge
g_nan NaN
# TYPE g_neginf gauge
g_neginf -Inf
# TYPE g_plain gauge
g_plain 2.5
# TYPE task_cost histogram
task_cost_bucket{le="0.5"} 1
task_cost_bucket{le="10"} 2
task_cost_bucket{le="+Inf"} 3
task_cost_sum 105.25
task_cost_count 3
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A second export of the unchanged registry is byte-identical.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("repeated export not byte-identical")
	}
}

func TestPromNameEdgeCases(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"job2.blocks", "job2_blocks"},
		{"9lives", "_lives"},
		{"", "_"},
		{"a:b_c9", "a:b_c9"},
		{"sné", "sn_"},
	} {
		if got := PromName(tc.in); got != tc.want {
			t.Errorf("PromName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	hv := HistogramValue{
		Bounds: []float64{1, 10, 100},
		Counts: []uint64{0, 2, 0, 0},
		Sum:    12,
		Count:  2,
		Min:    2,
		Max:    10,
	}
	if got := hv.Mean(); got != 6 {
		t.Errorf("Mean = %v, want 6", got)
	}
	if got := hv.Quantile(0.5); got != 6 {
		t.Errorf("p50 = %v, want 6 (half way across the observed [2, 10])", got)
	}
	if got := hv.Quantile(0); got != 2 {
		t.Errorf("p0 = %v, want 2 (the smallest observation)", got)
	}
	if got := hv.Quantile(1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}

	// +Inf-bucket observations interpolate up to the largest one.
	inf := HistogramValue{Bounds: []float64{1}, Counts: []uint64{0, 3}, Count: 3, Min: 5, Max: 9}
	if got := inf.Quantile(1); got != 9 {
		t.Errorf("+Inf-bucket p100 = %v, want 9", got)
	}

	// Empty histogram.
	var empty HistogramValue
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
}

// TestQuantilesStayInTheObservedRange: over random observation sets
// spread across decade buckets and past the last bound, every
// Quantile(q) of a registry histogram's snapshot lies in [min, max],
// q = 0 is the smallest observation and q = 1 the largest.
func TestQuantilesStayInTheObservedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		r := NewRegistry()
		h := r.Histogram("h")
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := rng.Intn(20) + 1; i > 0; i-- {
			v := math.Pow(10, rng.Float64()*9-2) // 0.01 .. 1e7, past DefaultBuckets' last bound
			if rng.Intn(4) == 0 {
				v = float64(rng.Intn(5) * 100) // exact bounds, repeats, zero
			}
			h.Observe(v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		hv := r.Snapshot().Histograms[0]
		if got := hv.Quantile(0); got != lo {
			t.Fatalf("round %d: p0 = %v, smallest observation %v", round, got, lo)
		}
		if got := hv.Quantile(1); got != hi {
			t.Fatalf("round %d: p100 = %v, largest observation %v", round, got, hi)
		}
		for q := 0.0; q <= 1; q += 0.01 {
			if got := hv.Quantile(q); got < lo || got > hi {
				t.Fatalf("round %d: Quantile(%v) = %v outside [%v, %v]", round, q, got, lo, hi)
			}
		}
	}
}
