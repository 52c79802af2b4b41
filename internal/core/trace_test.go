package core

import (
	"bytes"
	"testing"

	"proger/internal/datagen"
	"proger/internal/estimate"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/sched"
)

// tracedPeopleOptions returns People-toy options with a fresh tracer
// and metrics registry attached.
func tracedPeopleOptions(workers int) Options {
	return Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
		Scheduler:       sched.Ours,
		Host:            Host{Workers: workers, Trace: obs.New(), Metrics: obs.NewRegistry()},
	}
}

func TestResolveTraceCoverage(t *testing.T) {
	ds, _ := datagen.People()
	opts := tracedPeopleOptions(0)
	res, err := Resolve(ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The trace must cover every pipeline stage.
	byCat := map[string]int{}
	var maxEnd float64
	for _, s := range opts.Trace.Spans() {
		byCat[s.Cat]++
		if end := s.Start + s.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	for _, cat := range []string{"map", "reduce", "shuffle", "schedule", "resolve"} {
		if byCat[cat] == 0 {
			t.Errorf("no %q spans in pipeline trace (have %v)", cat, byCat)
		}
	}
	if maxEnd > res.TotalTime {
		t.Errorf("span ends at %v, after pipeline end %v", maxEnd, res.TotalTime)
	}

	// Both jobs and the schedule generator get their own process lanes.
	procs := opts.Trace.Processes()
	wantProcs := map[string]bool{
		"job1-progressive-blocking":   false,
		"schedule-generation":         false,
		"job2-progressive-resolution": false,
	}
	for _, p := range procs {
		if _, ok := wantProcs[p]; !ok {
			t.Errorf("unexpected process lane %q", p)
		}
		wantProcs[p] = true
	}
	for p, seen := range wantProcs {
		if !seen {
			t.Errorf("missing process lane %q", p)
		}
	}

	// The registry absorbed both jobs' counters and the pipeline gauge.
	snap := opts.Metrics.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters[CounterJob2Dups] != int64(len(res.Duplicates)) {
		t.Errorf("%s = %d, want %d", CounterJob2Dups, counters[CounterJob2Dups], len(res.Duplicates))
	}
	var gauge float64
	for _, g := range snap.Gauges {
		if g.Name == "pipeline.total_time_units" {
			gauge = g.Value
		}
	}
	if gauge != res.TotalTime {
		t.Errorf("pipeline.total_time_units = %v, want %v", gauge, res.TotalTime)
	}
}

func TestResolveTraceDeterministicAcrossWorkers(t *testing.T) {
	ds, _ := datagen.People()
	opts1 := tracedPeopleOptions(1)
	opts8 := tracedPeopleOptions(8)
	if _, err := Resolve(ds, opts1); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(ds, opts8); err != nil {
		t.Fatal(err)
	}
	var b1, b8 bytes.Buffer
	if err := opts1.Trace.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := opts8.Trace.WriteChromeTrace(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Error("pipeline trace JSON differs between 1 and 8 workers")
	}
}

func TestResolveTracingDoesNotChangeResults(t *testing.T) {
	ds, _ := datagen.People()
	plainOpts := tracedPeopleOptions(0)
	plainOpts.Trace = nil
	plainOpts.Metrics = nil
	plain, err := Resolve(ds, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Resolve(ds, tracedPeopleOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalTime != traced.TotalTime {
		t.Errorf("tracing changed timing: %v vs %v", plain.TotalTime, traced.TotalTime)
	}
	if len(plain.Events) != len(traced.Events) {
		t.Errorf("tracing changed events: %d vs %d", len(plain.Events), len(traced.Events))
	}
	for i := range plain.Events {
		if plain.Events[i] != traced.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, plain.Events[i], traced.Events[i])
		}
	}
}

func TestResolveBasicTrace(t *testing.T) {
	ds, _ := datagen.People()
	tr := obs.New()
	m := obs.NewRegistry()
	res, err := ResolveBasic(ds, BasicOptions{
		Families:         peopleFamilies(),
		Matcher:          peopleMatcher(),
		Mechanism:        mechanism.SN{},
		Window:           5,
		PopcornThreshold: -1,
		Machines:         2,
		SlotsPerMachine:  2,
		Host:             Host{Trace: tr, Metrics: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	byCat := map[string]int{}
	for _, s := range tr.Spans() {
		byCat[s.Cat]++
	}
	for _, cat := range []string{"map", "reduce", "shuffle", "resolve"} {
		if byCat[cat] == 0 {
			t.Errorf("no %q spans in basic trace (have %v)", cat, byCat)
		}
	}
	counters := map[string]int64{}
	for _, c := range m.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters[CounterBasicDups] != int64(len(res.Duplicates)) {
		t.Errorf("%s = %d, want %d", CounterBasicDups, counters[CounterBasicDups], len(res.Duplicates))
	}
}
