package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(3)
	r.AddCounters(map[string]int64{"x": 1})
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Error("nil instruments hold state")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pairs").Add(3)
	r.Counter("pairs").Inc()
	if got := r.Counter("pairs").Value(); got != 4 {
		t.Errorf("counter = %d", got)
	}
	r.Gauge("recall").Set(0.75)
	if got := r.Gauge("recall").Value(); got != 0.75 {
		t.Errorf("gauge = %v", got)
	}
	h := r.Histogram("cost", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	if hv := r.Snapshot().Histograms[0]; hv.Count != 3 || hv.Sum != 5055 {
		t.Errorf("hist count=%d sum=%v", hv.Count, hv.Sum)
	}
	// Same name returns the same instrument; bounds of later calls ignored.
	if r.Histogram("cost", 1) != h {
		t.Error("histogram not deduplicated by name")
	}
}

func TestAddCounters(t *testing.T) {
	r := NewRegistry()
	r.AddCounters(map[string]int64{"job1.trees": 8, "job2.dups": 3})
	r.AddCounters(map[string]int64{"job2.dups": 2})
	if r.Counter("job2.dups").Value() != 5 || r.Counter("job1.trees").Value() != 8 {
		t.Errorf("absorbed counters wrong: %+v", r.Snapshot().Counters)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Inc()
	r.Counter("aa").Inc()
	r.Gauge("m").Set(1)
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "aa" || snap.Counters[1].Name != "zz" {
		t.Errorf("counters not sorted: %+v", snap.Counters)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("job2.blocks_resolved").Add(12)
	r.Gauge("total time").Set(1500.5)
	h := r.Histogram("task_cost", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE job2_blocks_resolved counter\njob2_blocks_resolved 12\n",
		"# TYPE total_time gauge\ntotal_time 1500.5\n",
		"# TYPE task_cost histogram\n",
		"task_cost_bucket{le=\"10\"} 1\n",
		"task_cost_bucket{le=\"100\"} 2\n",
		"task_cost_bucket{le=\"+Inf\"} 3\n",
		"task_cost_sum 5055\n",
		"task_cost_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"job2.blocks_resolved": "job2_blocks_resolved",
		"9lives":               "_lives",
		"ok_name:x9":           "ok_name:x9",
		"":                     "_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if n, h := r.Counter("n").Value(), r.Snapshot().Histograms[0].Count; n != 8000 || h != 8000 {
		t.Errorf("lost updates: n=%d h=%d", n, h)
	}
}
