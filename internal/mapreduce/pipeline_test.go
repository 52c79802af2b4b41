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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proger/internal/faults"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// ---- taskGraph unit tests ----

// TestTaskGraphRespectsDependencies runs a diamond a→{b,c}→d many
// times concurrently and asserts every observed completion order is a
// topological order of the graph.
func TestTaskGraphRespectsDependencies(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var mu sync.Mutex
		var order []string
		mark := func(name string) func() error {
			return func() error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			}
		}
		g := &taskGraph{}
		a := g.node(nodeKey{nodeMap, 0}, mark("a"))
		b := g.node(nodeKey{nodeMap, 1}, mark("b"))
		c := g.node(nodeKey{nodeMap, 2}, mark("c"))
		d := g.node(nodeKey{nodeReduce, 0}, mark("d"))
		g.edge(a, b)
		g.edge(a, c)
		g.edge(b, d)
		g.edge(c, d)
		if err := g.execute(4); err != nil {
			t.Fatal(err)
		}
		pos := map[string]int{}
		for i, name := range order {
			pos[name] = i
		}
		if len(pos) != 4 {
			t.Fatalf("ran %d nodes, want 4 (order %v)", len(pos), order)
		}
		for _, dep := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
			if pos[dep[0]] > pos[dep[1]] {
				t.Fatalf("node %q ran before its dependency %q (order %v)", dep[1], dep[0], order)
			}
		}
	}
}

// TestTaskGraphFailureStopsDispatch: once a node fails, no
// not-yet-dispatched node runs — including ready siblings still in the
// queue when the failure lands (workers=1 makes that deterministic, and
// dispatches independent nodes strictly in insertion order).
func TestTaskGraphFailureStopsDispatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    int  // independent root nodes
		failAt   int  // the root that fails
		joinRoot bool // add one node depending on every root
	}{
		{name: "ready sibling and dependent", nodes: 2, failAt: 0, joinRoot: true},
		{name: "sequential short-circuit", nodes: 100, failAt: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ran []int
			g := &taskGraph{}
			roots := make([]*dagNode, tc.nodes)
			for i := range roots {
				i := i
				roots[i] = g.node(nodeKey{nodeMap, i}, func() error {
					ran = append(ran, i)
					if i == tc.failAt {
						return errors.New("boom")
					}
					return nil
				})
			}
			if tc.joinRoot {
				join := g.node(nodeKey{nodeReduce, 0}, func() error {
					ran = append(ran, -1)
					return nil
				})
				for _, n := range roots {
					g.edge(n, join)
				}
			}
			err := g.execute(1)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v, want boom", err)
			}
			want := make([]int, tc.failAt+1)
			for i := range want {
				want[i] = i
			}
			if !reflect.DeepEqual(ran, want) {
				t.Errorf("ran %v, want exactly the nodes up to the failing one %v", ran, want)
			}
		})
	}
}

// TestTaskGraphPanicBecomesError: a panicking node is converted to an
// attributable task error, not a dead process.
func TestTaskGraphPanicBecomesError(t *testing.T) {
	g := &taskGraph{}
	g.node(nodeKey{nodeMap, 7}, func() error { panic("kaboom") })
	err := g.execute(2)
	if err == nil || !strings.Contains(err.Error(), "task 7 panicked: kaboom") {
		t.Fatalf("err = %v, want task-7 panic error", err)
	}
}

// TestTaskGraphFailureOrderDeterministic: failures collected from
// concurrently running nodes are always reported in (phase, task)
// order, no matter which finished first.
func TestTaskGraphFailureOrderDeterministic(t *testing.T) {
	want := "mapreduce: map task 1 failed\nmapreduce: reduce task 0 failed"
	for trial := 0; trial < 30; trial++ {
		g := &taskGraph{}
		// Both roots are ready immediately and run concurrently.
		g.node(nodeKey{nodeReduce, 0}, func() error {
			return errors.New("mapreduce: reduce task 0 failed")
		})
		g.node(nodeKey{nodeMap, 1}, func() error {
			return errors.New("mapreduce: map task 1 failed")
		})
		err := g.execute(2)
		if err == nil {
			t.Fatal("no error")
		}
		if got := err.Error(); got != want {
			// Both may not always fail (first failure stops dispatch only
			// for queued nodes; these two are usually both in flight). If
			// only one landed, it must still be a clean single error.
			if got != "mapreduce: map task 1 failed" && got != "mapreduce: reduce task 0 failed" {
				t.Fatalf("trial %d: err = %q", trial, got)
			}
		}
	}
}

// TestTaskGraphWorkerClamp: every node runs exactly once without error,
// at degenerate worker counts and with far more nodes than workers.
func TestTaskGraphWorkerClamp(t *testing.T) {
	for _, tc := range []struct{ workers, nodes int }{
		{-1, 1}, {0, 1}, {1, 1}, {100, 1}, {8, 257},
	} {
		var executed atomic.Int64
		g := &taskGraph{}
		for i := 0; i < tc.nodes; i++ {
			g.node(nodeKey{nodeMap, i}, func() error { executed.Add(1); return nil })
		}
		if err := g.execute(tc.workers); err != nil {
			t.Fatalf("workers=%d: %v", tc.workers, err)
		}
		if got := executed.Load(); got != int64(tc.nodes) {
			t.Fatalf("workers=%d: executed %d of %d nodes", tc.workers, got, tc.nodes)
		}
	}
	if err := (&taskGraph{}).execute(4); err != nil {
		t.Fatalf("empty graph: %v", err)
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
// variant. (The name recalls the barriered engine the task graph was
// once compared with; every job now runs one graph.)
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

// TestPipelinedMatchesBarrierUnderFaults extends the equivalence to
// the attempt runtime: with deterministic fault injection, retries,
// and speculation active, every worker count must produce the Result
// of the fault-free in-memory run at workers=1 — in memory, and (the
// spill variant) under a memory budget that forces the shuffle to disk.
func TestPipelinedMatchesBarrierUnderFaults(t *testing.T) {
	run := func(t *testing.T, rate float64, workers int, spill bool) *Result {
		cfg := wordCountConfig(workers)
		if rate > 0 {
			cfg.Faults = faults.NewSeeded(11, rate)
			cfg.Retry = RetryPolicy{MaxRetries: 3, Speculation: true}
		}
		if spill {
			spillEverything(&cfg)
			cfg.SpillDir = t.TempDir()
		}
		res, err := Run(cfg, wordCountInput(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if spill {
			requireSpilled(t, &cfg)
		}
		return res
	}
	ref := run(t, 0, 1, false)
	for _, rate := range []float64{0, 0.5} {
		for _, workers := range []int{1, 4, 8} {
			for _, spill := range []bool{false, true} {
				name := fmt.Sprintf("rate=%v/workers=%d", rate, workers)
				if spill {
					name += "/spill"
				}
				t.Run(name, func(t *testing.T) {
					if res := run(t, rate, workers, spill); !reflect.DeepEqual(res, ref) {
						t.Errorf("Result diverged under faults:\nreference: %+v\ngot:       %+v", ref, res)
					}
				})
			}
		}
	}
}

// TestPipelinedTraceMatchesBarrier: the simulated-clock Chrome trace
// export must be byte-identical across worker counts — the graph's
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

// TestPipelinedErrorPropagates: task errors surface through the graph
// with the task function's own wrapping.
func TestPipelinedErrorPropagates(t *testing.T) {
	cfg := wordCountConfig(4)
	cfg.NewMapper = func() Mapper { return failingMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want map failure", err)
	}
}

// ---- the map → reduce edges ----

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

// TestReduceWaitsForEveryMap pins the graph's one ordering: no reduce
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

// TestJobGraphShuffleFailureLeavesNoSpill: when one reduce task —
// which shuffles (merges) its own partition — exhausts its retry
// ladder, the spill state of every partition, the one that reduced
// successfully included, must still be settled: every graph node
// publishes into phaseOutputs, and Run closes whatever is there. Both
// values of the ignored Execution field must settle alike.
func TestJobGraphShuffleFailureLeavesNoSpill(t *testing.T) {
	for _, mode := range []ExecutionMode{0, 1} {
		t.Run(fmt.Sprintf("mode=%d/budget", mode), func(t *testing.T) {
			cfg := wordCountConfig(1) // one worker: reduce 0 reads its store before reduce 1 fails
			cfg.Execution = mode
			cfg.SpillDir = t.TempDir()
			cfg.Retry = RetryPolicy{MaxRetries: 2}
			cfg.Faults = faults.Script{
				{Phase: live.PhaseReduce, Task: 1, Attempt: 1}: {Kind: faults.Crash},
				{Phase: live.PhaseReduce, Task: 1, Attempt: 2}: {Kind: faults.Crash},
				{Phase: live.PhaseReduce, Task: 1, Attempt: 3}: {Kind: faults.Crash},
			}
			cfg.MemBudget = membudget.New(64) // ~one small run; everything spills
			if _, err := Run(cfg, wordCountInput(), 0); err == nil {
				t.Fatal("Run succeeded; the scripted reduce failure never fired")
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
