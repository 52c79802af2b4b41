package core

import (
	"errors"
	"reflect"
	"testing"

	"proger/internal/mapreduce"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// namedTransport is a TaskTransport that only has a name: configure
// hands it on without ever beginning a job.
type namedTransport string

func (t namedTransport) TransportName() string { return string(t) }

func (namedTransport) BeginJob(*mapreduce.RemoteRunner) (mapreduce.RemoteJob, error) {
	return nil, errors.New("namedTransport runs no jobs")
}

// TestHostReachesEveryJob sets every Host field to a non-zero value and
// checks that configure hands each one to Job 1, Job 2 and the Basic
// job, under the Config field of the same name. A field configure
// forgets, or a Host field added without a value here, fails the test.
func TestHostReachesEveryJob(t *testing.T) {
	values := map[string]any{
		"Workers":   3,
		"Execution": mapreduce.ExecutionMode(1),
		"Transport": namedTransport("test"),
		"Trace":     obs.New(),
		"Metrics":   obs.NewRegistry(),
		"Quality":   quality.NewRecorder(),
		"Live":      live.NewRun(nil),
		"MemBudget": int64(1 << 20),
		"SpillDir":  "spill",
	}
	var h Host
	hv := reflect.ValueOf(&h).Elem()
	for i := 0; i < hv.NumField(); i++ {
		name := hv.Type().Field(i).Name
		v, ok := values[name]
		if !ok {
			t.Fatalf("Host.%s has no test value", name)
		}
		hv.Field(i).Set(reflect.ValueOf(v))
	}
	if len(values) != hv.NumField() {
		t.Fatalf("%d test values for %d Host fields", len(values), hv.NumField())
	}

	var job1, job2, basic mapreduce.Config
	runMgr := h.configure(&job1, &job2)
	basicMgr := h.configure(&basic)
	if runMgr == nil || basicMgr == nil {
		t.Fatal("configure made no budget manager for MemBudget > 0")
	}
	if runMgr == basicMgr {
		t.Error("two runs share one budget manager")
	}
	for _, job := range []struct {
		name string
		cfg  *mapreduce.Config
		mgr  any
	}{{"job 1", &job1, runMgr}, {"job 2", &job2, runMgr}, {"basic", &basic, basicMgr}} {
		cv := reflect.ValueOf(job.cfg).Elem()
		for i := 0; i < hv.NumField(); i++ {
			name := hv.Type().Field(i).Name
			want := hv.Field(i).Interface()
			if name == "MemBudget" {
				want = job.mgr // the run's one manager, not the byte count
			}
			if got := cv.FieldByName(name).Interface(); got != want {
				t.Errorf("%s: Config.%s = %v, want %v", job.name, name, got, want)
			}
		}
	}

	// The live layer reads the budget and the quality totals through its
	// attachments.
	if got := h.Live.Budget().Budget; got != h.MemBudget {
		t.Errorf("live budget = %d, want %d", got, h.MemBudget)
	}
	h.Quality.RecordPrediction(quality.BlockPrediction{Dup: 2})
	if got := h.Live.Progress().PredictedDups; got != 2 {
		t.Errorf("live predicted dups = %v, want 2 (quality recorder not attached)", got)
	}
}
