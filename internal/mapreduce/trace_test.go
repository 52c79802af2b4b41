package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"proger/internal/obs"
)

func TestCountersMergeNilReceiver(t *testing.T) {
	// A zero-valued Counters field must absorb merges directly — this
	// was a panic before Merge grew the lazy allocation.
	var c Counters
	c.Merge(Counters{"a": 1, "b": 2})
	if c.Get("a") != 1 || c.Get("b") != 2 {
		t.Errorf("merge into nil = %v", c)
	}
	// Merging an empty map into nil must not allocate.
	var d Counters
	d.Merge(nil)
	d.Merge(Counters{})
	if d != nil {
		t.Errorf("empty merges allocated: %v", d)
	}
	// And a struct field works without taking an explicit pointer.
	var res Result
	res.Counters.Merge(Counters{"x": 7})
	if res.Counters.Get("x") != 7 {
		t.Errorf("struct-field merge = %v", res.Counters)
	}
}

// runTraced runs wordcount with a tracer and metrics attached.
func runTraced(t *testing.T, workers int) (*Result, *obs.Tracer, *obs.Registry) {
	t.Helper()
	cfg := wordCountConfig(workers)
	cfg.Trace = obs.New()
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Trace, cfg.Metrics
}

func TestEngineTraceSpans(t *testing.T) {
	res, tr, m := runTraced(t, 1)
	spans := tr.Spans()
	byCat := map[string][]obs.Span{}
	for _, s := range spans {
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	if len(byCat["map"]) != 3 || len(byCat["reduce"]) != 2 {
		t.Fatalf("got %d map / %d reduce spans, want 3 / 2",
			len(byCat["map"]), len(byCat["reduce"]))
	}
	if len(byCat["shuffle"]) == 0 {
		t.Error("no shuffle spans recorded")
	}
	// Task spans must sit exactly on the schedule the engine reports.
	for i, s := range byCat["map"] {
		if s.Start != res.MapStarts[i] {
			t.Errorf("map %d span starts at %v, schedule says %v", i, s.Start, res.MapStarts[i])
		}
		if s.TID != res.MapSlots[i] {
			t.Errorf("map %d span on slot %d, schedule says %d", i, s.TID, res.MapSlots[i])
		}
	}
	for i, s := range byCat["reduce"] {
		if s.Start != res.ReduceStarts[i] {
			t.Errorf("reduce %d span starts at %v, schedule says %v", i, s.Start, res.ReduceStarts[i])
		}
		if end := s.Start + s.Dur; end > res.End {
			t.Errorf("reduce %d span ends at %v, after job end %v", i, end, res.End)
		}
	}
	// Every shuffle span is the first part of one reduce task: it lies
	// inside that task's window, on its slot.
	if len(byCat["shuffle"]) != len(res.ReduceStarts) {
		t.Errorf("got %d shuffle spans, want one per reduce task (%d)", len(byCat["shuffle"]), len(res.ReduceStarts))
	}
	for _, s := range byCat["shuffle"] {
		var r int
		if _, err := fmt.Sscanf(s.Name, "shuffle r%d", &r); err != nil || r < 0 || r >= len(res.ReduceStarts) {
			t.Errorf("shuffle span %q names no reduce task", s.Name)
			continue
		}
		lo, hi := res.ReduceStarts[r], res.ReduceStarts[r]+res.ReduceTaskCosts[r]
		if s.Start < lo || s.Start+s.Dur > hi {
			t.Errorf("%s spans [%v, %v], outside reduce %d's window [%v, %v]", s.Name, s.Start, s.Start+s.Dur, r, lo, hi)
		}
		if s.TID != res.ReduceSlots[r] {
			t.Errorf("%s on slot %d, reduce %d ran on slot %d", s.Name, s.TID, r, res.ReduceSlots[r])
		}
	}
	// Engine counters flow into the registry.
	snap := m.Snapshot()
	vals := map[string]int64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals[CounterMapInRecords] != 4 {
		t.Errorf("%s = %d, want 4", CounterMapInRecords, vals[CounterMapInRecords])
	}
	if vals[CounterMapOutRecords] != 16 {
		t.Errorf("%s = %d, want 16", CounterMapOutRecords, vals[CounterMapOutRecords])
	}
	if vals[CounterReduceInGroups] != 9 {
		t.Errorf("%s = %d, want 9", CounterReduceInGroups, vals[CounterReduceInGroups])
	}
}

func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	// The simulated-clock Chrome export must be byte-identical no matter
	// how many host workers executed the job.
	_, tr1, _ := runTraced(t, 1)
	_, tr8, _ := runTraced(t, 8)
	var b1, b8 bytes.Buffer
	if err := tr1.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr8.WriteChromeTrace(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Errorf("trace JSON differs between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			b1.String(), b8.String())
	}
}

func TestTraceDisabledRecordsNothing(t *testing.T) {
	cfg := wordCountConfig(2)
	res, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Counters must be identical to a traced run: tracing is observation
	// only, never behavior.
	resT, _, _ := runTraced(t, 2)
	if !reflect.DeepEqual(res.Counters, resT.Counters) {
		t.Errorf("tracing changed counters: %v vs %v", res.Counters, resT.Counters)
	}
	if res.End != resT.End {
		t.Errorf("tracing changed timing: %v vs %v", res.End, resT.End)
	}
}
