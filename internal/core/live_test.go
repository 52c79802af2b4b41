package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
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

// liveOpts returns People-toy pipeline options with a live hub wired.
func liveOpts(run *live.Run, workers int) Options {
	return Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
		Scheduler:       sched.Ours,
		Host:            Host{Workers: workers, Live: run},
	}
}

// TestLiveEndpointsDuringRun hammers /tasks and /progress from
// concurrent readers while an 8-worker pipeline publishes into the hub
// — the race-detector gate for the snapshot layer — and simultaneously
// checks that the live recall estimate and streamed duplicate count are
// monotonically nondecreasing.
func TestLiveEndpointsDuringRun(t *testing.T) {
	ds, _ := datagen.People()
	run := live.NewRun(nil)
	q := quality.NewRecorder()
	run.AttachQuality(q)
	opts := liveOpts(run, 8)
	opts.Quality = q

	srv, err := live.Serve("127.0.0.1:0", run, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var readErrs []string
	hammer := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(base + path)
			if err != nil {
				mu.Lock()
				readErrs = append(readErrs, err.Error())
				mu.Unlock()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	wg.Add(4)
	go hammer("/tasks")
	go hammer("/tasks")
	go hammer("/progress")
	go hammer("/membudget")

	// Monotonicity watcher: direct snapshots, tighter loop than HTTP.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastRecall float64
		var lastDups int64
		for {
			s := run.Progress()
			if s.RecallEstimate < lastRecall {
				mu.Lock()
				readErrs = append(readErrs, "recall decreased")
				mu.Unlock()
			}
			if s.Dups < lastDups {
				mu.Lock()
				readErrs = append(readErrs, "dups decreased")
				mu.Unlock()
			}
			lastRecall, lastDups = s.RecallEstimate, s.Dups
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	res, err := Resolve(ds, opts)
	run.Finish(err)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(readErrs) > 0 {
		t.Fatalf("concurrent readers failed: %v", readErrs)
	}
	if len(res.Duplicates) == 0 {
		t.Fatal("no duplicates found")
	}
	s := run.Progress()
	if s.Dups == 0 || s.BlocksResolved == 0 {
		t.Errorf("live totals empty after run: %+v", s)
	}
}

// TestLiveDoesNotChangeArtifacts pins the tentpole determinism gate at
// the pipeline level: Result events, Chrome trace bytes, and quality
// JSON are byte-identical with the live hub + event log enabled and
// disabled, across worker counts.
func TestLiveDoesNotChangeArtifacts(t *testing.T) {
	refRes, refTrace, refQual := equivRun(t, mapreduce.ExecPipelined, 1)
	ds, _ := datagen.People()
	for _, workers := range []int{1, 8} {
		var events bytes.Buffer
		run := live.NewRun(live.NewEventLog(&events))
		opts := liveOpts(run, workers)
		opts.Trace = obs.New()
		opts.Metrics = obs.NewRegistry()
		opts.Quality = quality.NewRecorder()
		res, err := Resolve(ds, opts)
		run.Finish(err)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Events, refRes.Events) || res.TotalTime != refRes.TotalTime {
			t.Errorf("workers=%d: live hub changed the result", workers)
		}
		var trace, qual bytes.Buffer
		if err := opts.Trace.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := opts.Quality.Export(0).WriteJSON(&qual); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trace.Bytes(), refTrace) {
			t.Errorf("workers=%d: live hub changed the trace bytes", workers)
		}
		if !bytes.Equal(qual.Bytes(), refQual) {
			t.Errorf("workers=%d: live hub changed the quality bytes", workers)
		}
		if events.Len() == 0 {
			t.Errorf("workers=%d: no events recorded", workers)
		}
	}
}

// deterministicEventKey strips the wall-clock fields (seq, wall_ms)
// from one event line and re-marshals the rest with sorted keys.
func deterministicEventKey(t *testing.T, line []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("event line %q: %v", line, err)
	}
	delete(m, "seq")
	delete(m, "wall_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// eventMultiset returns the sorted deterministic-subset lines of an
// event stream.
func eventMultiset(t *testing.T, raw []byte) []string {
	t.Helper()
	var keys []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		keys = append(keys, deterministicEventKey(t, sc.Bytes()))
	}
	sort.Strings(keys)
	return keys
}

// TestEventLogDeterministicSubset runs at 1 and 8 workers and checks
// the event streams agree exactly once the wall-clock fields are
// stripped: same events, same counts, only the interleaving differs.
func TestEventLogDeterministicSubset(t *testing.T) {
	ds, _ := datagen.People()
	var ref []string
	for _, workers := range []int{1, 8} {
		var events bytes.Buffer
		run := live.NewRun(live.NewEventLog(&events))
		opts := liveOpts(run, workers)
		_, err := Resolve(ds, opts)
		run.Finish(err)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := eventMultiset(t, events.Bytes())
		if len(got) == 0 {
			t.Fatal("no events recorded")
		}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: event multiset diverges from 1 worker: %d vs %d lines",
				workers, len(got), len(ref))
			for i := range ref {
				if i < len(got) && ref[i] != got[i] {
					t.Errorf("first divergence:\n  ref: %s\n  got: %s", ref[i], got[i])
					break
				}
			}
		}
	}
}
