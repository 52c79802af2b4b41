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
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// These tests pin end to end that the task-graph engine's host
// concurrency is invisible: the full two-job pipeline's Result, Chrome
// trace bytes, and quality-telemetry JSON are byte-identical across
// worker counts.

// equivRun resolves the People toy dataset with full telemetry at the
// given execution mode and workers and returns the Result plus the
// exported trace and quality bytes.
func equivRun(t *testing.T, mode mapreduce.ExecutionMode, workers int) (*Result, []byte, []byte) {
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
	res, err := Resolve(ds, opts)
	if err != nil {
		t.Fatalf("mode=%d workers=%d: %v", mode, workers, err)
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
// execution mode × workers point. (Its name recalls the barriered
// engine it was once compared with; every job now runs its map phase,
// then its reduce phase, and Host.Execution is ignored — both of its
// values must give the same bytes, because the benchmark still sets the
// barrier value.) The run at workers=1 is the source of truth; every
// run, workers=1 again included, must reproduce it byte for byte.
func TestResolvePipelinedMatchesBarrier(t *testing.T) {
	refRes, refTrace, refQual := equivRun(t, mapreduce.ExecPipelined, 1)
	for _, mode := range []mapreduce.ExecutionMode{0, 1} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("mode=%d/workers=%d", mode, workers), func(t *testing.T) {
				res, trace, qual := equivRun(t, mode, workers)
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
