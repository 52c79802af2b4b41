package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"proger/internal/datagen"
	"proger/internal/estimate"
	"proger/internal/faults"
	"proger/internal/mapreduce"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// These tests pin end to end that the task-graph engine's host
// concurrency is invisible: the full two-job pipeline's Result, Chrome
// trace bytes, and quality-telemetry JSON are byte-identical across
// worker counts and under fault injection.

// equivRun resolves the People toy dataset with full telemetry at the
// given execution mode/workers/fault-rate and returns the Result plus
// the exported trace and quality bytes.
func equivRun(t *testing.T, mode mapreduce.ExecutionMode, workers int, rate float64) (*Result, []byte, []byte) {
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
			Execution: mode,
			Trace:     obs.New(),
			Metrics:   obs.NewRegistry(),
			Quality:   quality.NewRecorder(),
		},
	}
	if rate > 0 {
		opts.Faults = faults.NewSeeded(11, rate)
		opts.Retry = mapreduce.RetryPolicy{MaxRetries: 3, Speculation: true}
	}
	res, err := Resolve(ds, opts)
	if err != nil {
		t.Fatalf("mode=%d workers=%d rate=%v: %v", mode, workers, rate, err)
	}
	var trace, qual bytes.Buffer
	if err := opts.Trace.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := opts.Quality.Export(0).WriteJSON(&qual); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), qual.Bytes()
}

// TestResolvePipelinedMatchesBarrier runs the pipeline at every
// execution mode × workers × fault-rate point. (Its name recalls the
// barriered engine it was once compared with; every job now runs its
// map phase, then its reduce phase, and Host.Execution is ignored — both of its values must
// give the same bytes, because the benchmark still sets the barrier value.)
// Per fault rate, the run at workers=1 is the source of truth (fault
// injection legitimately adds retry/attempt spans to the trace, so
// faulted and fault-free traces differ by design); every run at that
// rate, workers=1 again included, must reproduce it byte for byte. The
// duplicate set, event timeline, and total time must additionally match
// across rates — results are fault-immune even though traces record the
// extra attempts.
func TestResolvePipelinedMatchesBarrier(t *testing.T) {
	plainRes, _, _ := equivRun(t, mapreduce.ExecPipelined, 1, 0)
	for _, rate := range []float64{0, 0.5} {
		refRes, refTrace, refQual := equivRun(t, mapreduce.ExecPipelined, 1, rate)
		if !reflect.DeepEqual(refRes.Events, plainRes.Events) || refRes.TotalTime != plainRes.TotalTime {
			t.Fatalf("rate=%v: reference result diverged from fault-free run", rate)
		}
		for _, mode := range []mapreduce.ExecutionMode{0, 1} {
			for _, workers := range []int{1, 4, 8} {
				name := fmt.Sprintf("mode=%d/workers=%d/rate=%v", mode, workers, rate)
				t.Run(name, func(t *testing.T) {
					res, trace, qual := equivRun(t, mode, workers, rate)
					if !reflect.DeepEqual(res.Duplicates, refRes.Duplicates) {
						t.Error("duplicates diverged from the workers=1 reference")
					}
					if !reflect.DeepEqual(res.Events, refRes.Events) {
						t.Error("event timeline diverged from the workers=1 reference")
					}
					if res.TotalTime != refRes.TotalTime {
						t.Errorf("total time %v, want %v", res.TotalTime, refRes.TotalTime)
					}
					if !reflect.DeepEqual(res.Counters, refRes.Counters) {
						t.Error("counters diverged from the workers=1 reference")
					}
					if !bytes.Equal(trace, refTrace) {
						t.Error("Chrome trace JSON diverged from the workers=1 reference")
					}
					if !bytes.Equal(qual, refQual) {
						t.Error("quality-telemetry JSON diverged from the workers=1 reference")
					}
				})
			}
		}
	}
}

// TestResolveBasicPipelinedMatchesBarrier covers the Basic baseline's
// single job: its events and total time are the same at 1 and 8
// workers as at the workers=1 reference.
func TestResolveBasicPipelinedMatchesBarrier(t *testing.T) {
	ds, _ := datagen.People()
	run := func(workers int) *Result {
		opts := BasicOptions{
			Families:        peopleFamilies(),
			Matcher:         peopleMatcher(),
			Mechanism:       mechanism.SN{},
			Window:          5,
			Machines:        2,
			SlotsPerMachine: 2,
			Host:            Host{Workers: workers},
		}
		res, err := ResolveBasic(ds, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{1, 8} {
		res := run(workers)
		if !reflect.DeepEqual(res.Events, ref.Events) {
			t.Errorf("workers=%d: Basic events diverged from the workers=1 reference", workers)
		}
		if res.TotalTime != ref.TotalTime {
			t.Errorf("workers=%d: total time %v, want %v", workers, res.TotalTime, ref.TotalTime)
		}
	}
}
