package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
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
		b := g.node(nodeKey{nodeShuffle, 0}, mark("b"))
		c := g.node(nodeKey{nodeShuffle, 1}, mark("c"))
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

// ---- barrier ↔ pipelined equivalence ----

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
// between the barriered reference engine and the pipelined engine, for
// every variant × worker count.
func TestPipelinedMatchesBarrier(t *testing.T) {
	for name, mutate := range pipelineVariants() {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				bCfg := wordCountConfig(workers)
				mutate(&bCfg)
				bCfg.Execution = ExecBarrier
				pCfg := wordCountConfig(workers)
				mutate(&pCfg)
				pCfg.Execution = ExecPipelined

				bRes, err := Run(bCfg, wordCountInput(), 0)
				if err != nil {
					t.Fatalf("barrier: %v", err)
				}
				pRes, err := Run(pCfg, wordCountInput(), 0)
				if err != nil {
					t.Fatalf("pipelined: %v", err)
				}
				if !reflect.DeepEqual(bRes, pRes) {
					t.Errorf("Result diverged between engines:\nbarrier:   %+v\npipelined: %+v", bRes, pRes)
				}
				if bCfg.MemBudget != nil {
					requireSpilled(t, &bCfg)
					requireSpilled(t, &pCfg)
				}
			})
		}
	}
}

// TestPipelinedMatchesBarrierUnderFaults extends the equivalence to
// the attempt runtime: with deterministic fault injection, retries,
// and speculation active, both engines must produce the identical
// Result at every worker count — in memory, and (the spill variant)
// under a memory budget that forces the shuffle to disk.
func TestPipelinedMatchesBarrierUnderFaults(t *testing.T) {
	for _, rate := range []float64{0, 0.5} {
		for _, workers := range []int{1, 4, 8} {
			for _, spill := range []bool{false, true} {
				name := fmt.Sprintf("rate=%v/workers=%d", rate, workers)
				if spill {
					name += "/spill"
				}
				t.Run(name, func(t *testing.T) {
					run := func(mode ExecutionMode) *Result {
						cfg := wordCountConfig(workers)
						cfg.Execution = mode
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
							t.Fatalf("mode=%v: %v", mode, err)
						}
						if spill {
							requireSpilled(t, &cfg)
						}
						return res
					}
					bRes := run(ExecBarrier)
					pRes := run(ExecPipelined)
					if !reflect.DeepEqual(bRes, pRes) {
						t.Errorf("Result diverged under faults:\nbarrier:   %+v\npipelined: %+v", bRes, pRes)
					}
				})
			}
		}
	}
}

// TestPipelinedTraceMatchesBarrier: the simulated-clock Chrome trace
// export must be byte-identical across engines and worker counts —
// the pipelined engine's different host interleaving must leave no
// fingerprint on the exported timeline.
func TestPipelinedTraceMatchesBarrier(t *testing.T) {
	export := func(mode ExecutionMode, workers int) []byte {
		cfg := wordCountConfig(workers)
		cfg.Execution = mode
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
	ref := export(ExecBarrier, 1)
	for _, workers := range []int{1, 4, 8} {
		if got := export(ExecPipelined, workers); !bytes.Equal(got, ref) {
			t.Errorf("pipelined workers=%d: trace JSON differs from barrier reference", workers)
		}
	}
}

// TestPipelinedErrorPropagates: task errors surface through the graph
// with the task function's own wrapping.
func TestPipelinedErrorPropagates(t *testing.T) {
	cfg := wordCountConfig(4)
	cfg.Execution = ExecPipelined
	cfg.NewMapper = func() Mapper { return failingMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want map failure", err)
	}
}

// ---- barrier edge policy ----

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

// TestBarrierModeNeverOverlapsPhases pins the one property the barrier
// edge policy has to provide as the no-overlap reference: no shuffle or
// reduce body starts before the last map body returns, and no reduce
// body starts before the last shuffle finishes. The gates hold a map
// and a reduce body open while the live task table is inspected; the
// event log (one mutex-ordered sequence of every body's start and done
// transition) then proves the ordering over the whole run.
func TestBarrierModeNeverOverlapsPhases(t *testing.T) {
	mGate := &mapGate{entered: make(chan struct{}), release: make(chan struct{})}
	rGate := &mapGate{entered: make(chan struct{}), release: make(chan struct{})}
	var events bytes.Buffer
	run := live.NewRun(live.NewEventLog(&events))
	cfg := wordCountConfig(8)
	cfg.NumReduceTasks = 4
	cfg.Execution = ExecBarrier
	cfg.Live = run
	cfg.NewMapper = func() Mapper { return gatedMapper{gate: mGate} }
	cfg.NewReducer = func() Reducer { return gatedReducer{gate: rGate} }

	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, wordCountInput(), 0)
		done <- err
	}()
	// wantStates asserts every task row of the given phases is in state.
	wantStates := func(when, state string, phases ...live.Phase) {
		t.Helper()
		for _, row := range run.Tasks() {
			if slices.Contains(phases, row.Phase) && row.State != state {
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
	wantStates("map body open", "pending", live.PhaseShuffle, live.PhaseReduce)
	close(mGate.release)
	await("the gated reduce body", rGate.entered)
	wantStates("reduce body open", "done", live.PhaseMap, live.PhaseShuffle)
	close(rGate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Whole-run ordering: the last done of a phase precedes the first
	// start of every later phase.
	lastDone := map[string]int{}
	firstStart := map[string]int{}
	sc := bufio.NewScanner(&events)
	for line := 0; sc.Scan(); line++ {
		var ev struct {
			Event, Phase string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %d: %v", line, err)
		}
		switch ev.Event {
		case live.EventTaskDone:
			lastDone[ev.Phase] = line
		case live.EventTaskStart:
			if _, seen := firstStart[ev.Phase]; !seen {
				firstStart[ev.Phase] = line
			}
		}
	}
	for _, ord := range [][2]string{{"map", "shuffle"}, {"map", "reduce"}, {"shuffle", "reduce"}} {
		done, okDone := lastDone[ord[0]]
		start, okStart := firstStart[ord[1]]
		if !okDone || !okStart {
			t.Fatalf("event log misses %s done or %s start events", ord[0], ord[1])
		}
		if start < done {
			t.Errorf("a %s body started (event %d) before the last %s body finished (event %d)",
				ord[1], start, ord[0], done)
		}
	}
}

// TestJobGraphShuffleFailureLeavesNoSpill: when one partition's shuffle
// exhausts its retry ladder, the spill state of the partitions that did
// shuffle successfully must still be settled — every graph node
// publishes into phaseOutputs, and Run closes whatever is there.
func TestJobGraphShuffleFailureLeavesNoSpill(t *testing.T) {
	for _, mode := range []ExecutionMode{ExecPipelined, ExecBarrier} {
		t.Run(fmt.Sprintf("mode=%v/budget", mode), func(t *testing.T) {
			cfg := wordCountConfig(1) // one worker: shuffle 0 commits before shuffle 1 fails
			cfg.Execution = mode
			cfg.SpillDir = t.TempDir()
			cfg.Retry = RetryPolicy{MaxRetries: 2}
			cfg.Faults = faults.Script{
				{Phase: faults.Shuffle, Task: 1, Attempt: 1}: {Kind: faults.Crash},
				{Phase: faults.Shuffle, Task: 1, Attempt: 2}: {Kind: faults.Crash},
				{Phase: faults.Shuffle, Task: 1, Attempt: 3}: {Kind: faults.Crash},
			}
			cfg.MemBudget = membudget.New(64) // ~one small run; everything spills
			if _, err := Run(cfg, wordCountInput(), 0); err == nil {
				t.Fatal("Run succeeded; the scripted shuffle failure never fired")
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
