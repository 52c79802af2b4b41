package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"proger/internal/datagen"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// These tests pin end to end that the memory budget and its spill storage are host knobs only. A budget tight
// enough to force both jobs' shuffles through run files on disk must
// reproduce the in-memory pipeline's Result, Chrome trace bytes, and
// quality-telemetry JSON exactly.

// outOfCoreRun resolves the People toy dataset with full telemetry
// at the given workers/budget, and whatever else mutate sets,
// and returns the Result plus the exported trace and quality bytes and
// the metrics registry.
func outOfCoreRun(t *testing.T, workers int, budget int64, mutate ...func(*Options)) (*Result, []byte, []byte, *obs.Registry) {
	t.Helper()
	ds, _ := datagen.People()
	opts := Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
		Scheduler:       sched.Ours,
		Host: Host{
			Workers:   workers,
			Trace:     obs.New(),
			Metrics:   obs.NewRegistry(),
			Quality:   quality.NewRecorder(),
			MemBudget: budget,
		},
	}
	if budget > 0 {
		opts.SpillDir = t.TempDir()
	}
	for _, m := range mutate {
		m(&opts)
	}
	res, err := Resolve(ds, opts)
	if err != nil {
		t.Fatalf("workers=%d budget=%d: %v", workers, budget, err)
	}
	var trace, qual bytes.Buffer
	if err := opts.Trace.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := opts.Quality.Export(0).WriteJSON(&qual); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), qual.Bytes(), opts.Metrics
}

// TestResolveBudgetMatchesInMemory compares the out-of-core pipeline
// against the in-memory reference at every execution mode × worker
// count. Host.Execution is ignored, but the benchmark still sets the
// barrier value, so both of its values must give the same bytes. The
// 1 KiB budget is far below the People shuffle volume, so every
// reduce-partition store spills; the full Result, trace bytes, and
// quality JSON must still be byte-identical.
func TestResolveBudgetMatchesInMemory(t *testing.T) {
	refRes, refTrace, refQual, _ := outOfCoreRun(t, 1, 0)
	sawPressure := false
	for _, mode := range []mapreduce.ExecutionMode{0, 1} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("mode=%d/workers=%d", mode, workers)
			t.Run(name, func(t *testing.T) {
				res, trace, qual, m := outOfCoreRun(t, workers, 1<<10, func(o *Options) { o.Execution = mode })
				if !reflect.DeepEqual(res, refRes) {
					t.Error("Result diverged from in-memory reference")
				}
				if !bytes.Equal(trace, refTrace) {
					t.Error("Chrome trace JSON diverged from in-memory reference")
				}
				if !bytes.Equal(qual, refQual) {
					t.Error("quality-telemetry JSON diverged from in-memory reference")
				}
				if m.Counter(mapreduce.CounterBudgetForcedSpills).Value() > 0 {
					sawPressure = true
				}
				if m.Gauge(mapreduce.GaugeMemBudgetChargedBytes).Value() <= 0 {
					t.Error("charged-bytes gauge not set under a budget")
				}
			})
		}
	}
	if !sawPressure {
		t.Error("no configuration recorded a forced spill — the budget never bit")
	}
}

// TestResolveBasicBudgetMatchesInMemory covers the Basic baseline's
// single job under a tight budget.
func TestResolveBasicBudgetMatchesInMemory(t *testing.T) {
	ds, _ := datagen.People()
	run := func(workers int, budget int64) *Result {
		opts := BasicOptions{
			Families:        peopleFamilies(),
			Matcher:         peopleMatcher(),
			Mechanism:       mechanism.SN{},
			Window:          5,
			Machines:        2,
			SlotsPerMachine: 2,
			Host:            Host{Workers: workers, MemBudget: budget},
		}
		if budget > 0 {
			opts.SpillDir = t.TempDir()
		}
		res, err := ResolveBasic(ds, opts)
		if err != nil {
			t.Fatalf("workers=%d budget=%d: %v", workers, budget, err)
		}
		return res
	}
	ref := run(1, 0)
	for _, workers := range []int{1, 8} {
		res := run(workers, 1<<10)
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d: Basic result diverged under budget", workers)
		}
	}
}

// TestBudgetTelemetryIsTheManagersLedger: the run's budget manager is
// its one ledger. After Resolve and after ResolveBasic on publications
// under a 64 KiB budget, the registry's four budget values equal the
// manager's Snapshot as the live layer reads it, field for field.
func TestBudgetTelemetryIsTheManagersLedger(t *testing.T) {
	ds, gt := datagen.Publications(datagen.DefaultPublications(2000, 3))
	host := func() Host {
		return Host{MemBudget: 64 << 10, SpillDir: t.TempDir(), Metrics: obs.NewRegistry(), Live: live.NewRun(nil)}
	}
	opts := pubOptions(ds, gt, 4)
	opts.Host = host()
	basic := BasicOptions{
		Families:        opts.Families,
		Matcher:         pubMatcher(),
		Mechanism:       mechanism.SN{},
		Window:          15,
		Machines:        4,
		SlotsPerMachine: 2,
		Host:            host(),
	}
	for _, run := range []struct {
		name string
		h    *Host
		do   func() error
	}{
		{"resolve", &opts.Host, func() error { _, err := Resolve(ds, opts); return err }},
		{"basic", &basic.Host, func() error { _, err := ResolveBasic(ds, basic); return err }},
	} {
		t.Run(run.name, func(t *testing.T) {
			if err := run.do(); err != nil {
				t.Fatal(err)
			}
			b, m := run.h.Live.Budget(), run.h.Metrics
			if b.ForcedSpills == 0 {
				t.Fatal("the 64 KiB budget forced no spill")
			}
			for _, v := range []struct {
				name      string
				got, want float64
			}{
				{mapreduce.CounterBudgetForcedSpills, float64(m.Counter(mapreduce.CounterBudgetForcedSpills).Value()), float64(b.ForcedSpills)},
				{mapreduce.CounterBudgetSpilledBytes, float64(m.Counter(mapreduce.CounterBudgetSpilledBytes).Value()), float64(b.SpilledBytes)},
				{mapreduce.GaugeMemBudgetPeakBytes, m.Gauge(mapreduce.GaugeMemBudgetPeakBytes).Value(), float64(b.Peak)},
				{mapreduce.GaugeMemBudgetChargedBytes, m.Gauge(mapreduce.GaugeMemBudgetChargedBytes).Value(), float64(b.ChargedTotal)},
			} {
				if v.got != v.want {
					t.Errorf("%s = %v, manager holds %v", v.name, v.got, v.want)
				}
			}
		})
	}
}
