package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proger/internal/costmodel"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// ---- runTasks unit tests ----

// TestRunTasksFailureStopsDispatch: once a task fails, no task not yet
// started runs — including the next one in the slice, waiting for the
// failing task's slot (workers=1 makes that deterministic, and starts
// tasks strictly in slice order). The next phase is never started
// either: TestJobGraphFailureStopsLaterPhases checks that.
func TestRunTasksFailureStopsDispatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tasks  int
		failAt int // the task that fails
	}{
		{name: "ready sibling", tasks: 2, failAt: 0},
		{name: "sequential short-circuit", tasks: 100, failAt: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ran []int
			tasks := make([]phaseTask, tc.tasks)
			for i := range tasks {
				tasks[i] = phaseTask{i, func() error {
					ran = append(ran, i)
					if i == tc.failAt {
						return errors.New("boom")
					}
					return nil
				}}
			}
			err := runTasks(1, tasks)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v, want boom", err)
			}
			want := make([]int, tc.failAt+1)
			for i := range want {
				want[i] = i
			}
			if !reflect.DeepEqual(ran, want) {
				t.Errorf("ran %v, want exactly the tasks up to the failing one %v", ran, want)
			}
		})
	}
}

// TestRunTasksPanicBecomesError: a panicking task is converted to an
// attributable task error, not a dead process.
func TestRunTasksPanicBecomesError(t *testing.T) {
	err := runTasks(2, []phaseTask{{7, func() error { panic("kaboom") }}})
	if err == nil || !strings.Contains(err.Error(), "task 7 panicked: kaboom") {
		t.Fatalf("err = %v, want task-7 panic error", err)
	}
}

type panickyMapper struct{ MapperBase }

func (panickyMapper) Map(*TaskContext, KeyValue, Emitter) error {
	panic("mapper exploded")
}

// TestEngineSurvivesPanickingMapper: a panic in a user map function
// fails the job with the panic's message, through runTasks.
func TestEngineSurvivesPanickingMapper(t *testing.T) {
	cfg := wordCountConfig(2)
	cfg.NewMapper = func() Mapper { return panickyMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "panicked: mapper exploded") {
		t.Errorf("want panic converted to error, got %v", err)
	}
}

// TestRunTasksFailureOrderDeterministic: failures collected from
// concurrently running tasks are always reported in slice order — which
// runJobGraph makes (phase, task) order — no matter which finished
// first.
func TestRunTasksFailureOrderDeterministic(t *testing.T) {
	want := "mapreduce: map task 1 failed\nmapreduce: reduce task 0 failed"
	for trial := 0; trial < 30; trial++ {
		// Both tasks start at once; the first returns only after the
		// second has failed.
		second := make(chan struct{})
		err := runTasks(2, []phaseTask{
			{1, func() error {
				<-second
				return errors.New("mapreduce: map task 1 failed")
			}},
			{0, func() error {
				defer close(second)
				return errors.New("mapreduce: reduce task 0 failed")
			}},
		})
		if err == nil {
			t.Fatal("no error")
		}
		if got := err.Error(); got != want {
			t.Fatalf("trial %d: err = %q, want %q", trial, got, want)
		}
	}
}

// TestRunTasksWorkerClamp: every task runs exactly once without error,
// at degenerate worker counts and with far more tasks than workers, and
// never more than workers at a time.
func TestRunTasksWorkerClamp(t *testing.T) {
	for _, tc := range []struct{ workers, tasks int }{
		{-1, 1}, {0, 1}, {1, 1}, {100, 1}, {8, 257},
	} {
		var executed, running, peak atomic.Int64
		tasks := make([]phaseTask, tc.tasks)
		for i := range tasks {
			tasks[i] = phaseTask{i, func() error {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				executed.Add(1)
				running.Add(-1)
				return nil
			}}
		}
		if err := runTasks(tc.workers, tasks); err != nil {
			t.Fatalf("workers=%d: %v", tc.workers, err)
		}
		if got := executed.Load(); got != int64(tc.tasks) {
			t.Fatalf("workers=%d: executed %d of %d tasks", tc.workers, got, tc.tasks)
		}
		if p := peak.Load(); p > int64(max(1, tc.workers)) {
			t.Fatalf("workers=%d: %d tasks ran at once", tc.workers, p)
		}
	}
	if err := runTasks(4, nil); err != nil {
		t.Fatalf("no tasks: %v", err)
	}
}

// ---- equivalence across host concurrency ----

// pipelineVariants returns named config mutations covering the engine
// paths a job can take between map output and reduce input: the
// in-memory streaming merge (plain), the budget-governed spill path,
// and skewed task counts.
func pipelineVariants() map[string]func(*Config) {
	return map[string]func(*Config){
		"plain":       func(cfg *Config) {},
		"spill":       spillEverything,
		"singlemap":   func(cfg *Config) { cfg.NumMapTasks = 1 },
		"manyreduce":  func(cfg *Config) { cfg.NumReduceTasks = 5 },
		"singleslots": func(cfg *Config) { cfg.Cluster = Cluster{Machines: 1, SlotsPerMachine: 1} },
	}
}

// TestPipelinedMatchesBarrier: the full Result — output bytes,
// timestamps, counters, schedule, slot assignments — must be identical
// at every worker count to the variant's run at workers=1, for every
// variant. (The name recalls the barriered engine the pipelined one
// was once compared with; every job now runs two phases.)
func TestPipelinedMatchesBarrier(t *testing.T) {
	for name, mutate := range pipelineVariants() {
		run := func(workers int) (*Result, *Config) {
			cfg := wordCountConfig(workers)
			mutate(&cfg)
			res, err := Run(cfg, wordCountInput(), 0)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return res, &cfg
		}
		ref, _ := run(1)
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				res, cfg := run(workers)
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("Result diverged from workers=1:\nworkers=1: %+v\nworkers=%d: %+v", ref, workers, res)
				}
				if cfg.MemBudget != nil {
					requireSpilled(t, cfg)
				}
			})
		}
	}
}

// TestPipelinedTraceMatchesBarrier: the simulated-clock Chrome trace
// export must be byte-identical across worker counts — the runner's
// host interleaving must leave no fingerprint on the exported timeline.
func TestPipelinedTraceMatchesBarrier(t *testing.T) {
	export := func(workers int) []byte {
		cfg := wordCountConfig(workers)
		cfg.Trace = obs.New()
		cfg.Metrics = obs.NewRegistry()
		if _, err := Run(cfg, wordCountInput(), 0); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := cfg.Trace.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ref := export(1)
	for _, workers := range []int{1, 4, 8} {
		if got := export(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: trace JSON differs from the workers=1 reference", workers)
		}
	}
}

// TestPipelinedErrorPropagates: task errors surface through the runner
// with the task function's own wrapping.
func TestPipelinedErrorPropagates(t *testing.T) {
	cfg := wordCountConfig(4)
	cfg.NewMapper = func() Mapper { return failingMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want map failure", err)
	}
}

// ---- the map → reduce barrier ----

// gatedReducer blocks the first reduce task to reach Setup until
// released — the reduce-side twin of gatedMapper.
type gatedReducer struct {
	wordCountReducer
	gate *mapGate
}

func (r gatedReducer) Setup(*TaskContext) error {
	r.gate.once.Do(func() {
		close(r.gate.entered)
		<-r.gate.release
	})
	return nil
}

// TestReduceWaitsForEveryMap pins the job's one ordering: no reduce
// body starts before the last map body returns, since every partition
// holds a run of every map task. The gates hold a map and a reduce body
// open while the live task table is inspected; the event log (one
// mutex-ordered sequence of every body's start and done transition)
// then proves the ordering over the whole run.
func TestReduceWaitsForEveryMap(t *testing.T) {
	mGate := &mapGate{entered: make(chan struct{}), release: make(chan struct{})}
	rGate := &mapGate{entered: make(chan struct{}), release: make(chan struct{})}
	var events bytes.Buffer
	run := live.NewRun(live.NewEventLog(&events))
	cfg := wordCountConfig(8)
	cfg.NumReduceTasks = 4
	cfg.Live = run
	cfg.NewMapper = func() Mapper { return gatedMapper{gate: mGate} }
	cfg.NewReducer = func() Reducer { return gatedReducer{gate: rGate} }

	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, wordCountInput(), 0)
		done <- err
	}()
	// wantStates asserts every task row of phase p is in state.
	wantStates := func(when, state string, p live.Phase) {
		t.Helper()
		for _, row := range run.Tasks() {
			if row.Phase == p && row.State != state {
				t.Errorf("%s: %s task %d is %s, want %s", when, row.Phase, row.Task, row.State, state)
			}
		}
	}
	await := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case err := <-done:
			t.Fatalf("job ended (err=%v) before %s", err, what)
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	await("the gated map body", mGate.entered)
	wantStates("map body open", "pending", live.PhaseReduce)
	close(mGate.release)
	await("the gated reduce body", rGate.entered)
	wantStates("reduce body open", "done", live.PhaseMap)
	close(rGate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Whole-run ordering: the last map done precedes the first reduce
	// start.
	lastMapDone, firstReduceStart := -1, -1
	sc := bufio.NewScanner(&events)
	for line := 0; sc.Scan(); line++ {
		var ev struct {
			Event, Phase string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %d: %v", line, err)
		}
		switch {
		case ev.Event == live.EventTaskDone && ev.Phase == string(live.PhaseMap):
			lastMapDone = line
		case ev.Event == live.EventTaskStart && ev.Phase == string(live.PhaseReduce) && firstReduceStart < 0:
			firstReduceStart = line
		}
	}
	if lastMapDone < 0 || firstReduceStart < 0 {
		t.Fatal("event log misses map done or reduce start events")
	}
	if firstReduceStart < lastMapDone {
		t.Errorf("a reduce body started (event %d) before the last map body finished (event %d)",
			firstReduceStart, lastMapDone)
	}
}

// TestJobGraphPhases: runJobGraph starts a phase only once the phase
// before it has succeeded, and runs each task once. The bodies count
// every execution of every task, and hook runs before each one.
func TestJobGraphPhases(t *testing.T) {
	run := func(hook func(p live.Phase, task int) error) (maps, reduces []int32, err error) {
		cfg := wordCountConfig(2)
		cfg.Partition, cfg.Cost = HashPartitioner, costmodel.Default() // as Run defaults them
		po := newPhaseOutputs(&cfg)
		defer func() {
			for _, st := range po.stores {
				st.Close()
			}
		}()
		b := localBodies(&cfg, nil, splitInput(wordCountInput(), cfg.NumMapTasks), po)
		execs := map[live.Phase][]atomic.Int32{
			live.PhaseMap:    make([]atomic.Int32, cfg.NumMapTasks),
			live.PhaseReduce: make([]atomic.Int32, cfg.NumReduceTasks),
		}
		counted := func(p live.Phase, body func(int) (TaskResult, error)) func(int) (TaskResult, error) {
			return func(i int) (TaskResult, error) {
				execs[p][i].Add(1)
				if err := hook(p, i); err != nil {
					return TaskResult{}, err
				}
				return body(i)
			}
		}
		b.mapTask, b.reduce = counted(live.PhaseMap, b.mapTask), counted(live.PhaseReduce, b.reduce)
		err = runJobGraph(&cfg, cfg.Workers, po, b)
		load := func(p live.Phase) []int32 {
			n := make([]int32, len(execs[p]))
			for i := range n {
				n[i] = execs[p][i].Load()
			}
			return n
		}
		return load(live.PhaseMap), load(live.PhaseReduce), err
	}
	failing := func(phase live.Phase, task int) func(live.Phase, int) error {
		return func(p live.Phase, i int) error {
			if p == phase && i == task {
				return errors.New("boom")
			}
			return nil
		}
	}

	t.Run("failing map", func(t *testing.T) {
		maps, reduces, err := run(failing(live.PhaseMap, 1))
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want the map failure", err)
		}
		if !reflect.DeepEqual(reduces, []int32{0, 0}) {
			t.Errorf("reduce executions %v after a failed map phase, want none", reduces)
		}
		for m, n := range maps {
			if n > 1 {
				t.Errorf("map %d ran %d times, want at most once", m, n)
			}
		}
	})
	t.Run("failing reduce", func(t *testing.T) {
		maps, reduces, err := run(failing(live.PhaseReduce, 1))
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want the reduce failure", err)
		}
		if !reflect.DeepEqual(maps, []int32{1, 1, 1}) || !reflect.DeepEqual(reduces, []int32{1, 1}) {
			t.Errorf("map executions %v, reduce executions %v: want each task once", maps, reduces)
		}
	})
}

// failOnTask1Reducer counts words like wordCountReducer, except in
// reduce task 1, which fails.
type failOnTask1Reducer struct{ wordCountReducer }

func (r failOnTask1Reducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	if ctx.Index == 1 {
		return errors.New("reduce task 1 fails")
	}
	return r.wordCountReducer.Reduce(ctx, key, values, emit)
}

// TestJobGraphShuffleFailureLeavesNoSpill: when one reduce task —
// which shuffles (merges) its own partition — fails, the spill state of
// every partition, the one that reduced successfully included, must
// still be settled: every task publishes into phaseOutputs, and Run
// closes whatever is there. Both values of the ignored Execution field
// must settle alike.
func TestJobGraphShuffleFailureLeavesNoSpill(t *testing.T) {
	for _, mode := range []ExecutionMode{0, 1} {
		t.Run(fmt.Sprintf("mode=%d/budget", mode), func(t *testing.T) {
			cfg := wordCountConfig(1) // one worker: reduce 0 reads its store before reduce 1 fails
			cfg.Execution = mode
			cfg.SpillDir = t.TempDir()
			cfg.NewReducer = func() Reducer { return failOnTask1Reducer{} }
			cfg.MemBudget = membudget.New(64) // ~one small run; everything spills
			if _, err := Run(cfg, wordCountInput(), 0); err == nil || !strings.Contains(err.Error(), "reduce task 1 fails") {
				t.Fatalf("err = %v, want reduce task 1's failure", err)
			}
			entries, err := os.ReadDir(cfg.SpillDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("%d entries left under SpillDir after the failed run", len(entries))
			}
			if used := cfg.MemBudget.Used(); used != 0 {
				t.Errorf("MemBudget.Used() = %d after the failed run, want 0", used)
			}
		})
	}
}
