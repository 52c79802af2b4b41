package mapreduce

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"proger/internal/faults"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// counterValues extracts the registry's counters by name.
func counterValues(m *obs.Registry) map[string]int64 {
	vals := map[string]int64{}
	for _, c := range m.Snapshot().Counters {
		vals[c.Name] = c.Value
	}
	return vals
}

func TestResultImmuneToFaults(t *testing.T) {
	// The acceptance bar of the fault runtime: for any seed and rate,
	// at any host concurrency, Result (output, timestamps, counters,
	// schedule) is byte-identical to the fault-free run.
	baseline, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, 0.1, 0.5} {
		for _, workers := range []int{1, 8} {
			for _, seed := range []int64{1, 42} {
				cfg := wordCountConfig(workers)
				cfg.Faults = faults.NewSeeded(seed, rate)
				cfg.Retry = RetryPolicy{MaxRetries: 3, Speculation: true}
				res, err := Run(cfg, wordCountInput(), 0)
				if err != nil {
					t.Fatalf("rate=%v workers=%d seed=%d: %v", rate, workers, seed, err)
				}
				if !reflect.DeepEqual(res, baseline) {
					t.Errorf("rate=%v workers=%d seed=%d: Result diverged from fault-free baseline",
						rate, workers, seed)
				}
			}
		}
	}
}

func TestRetryExhaustionSurfacesJoinedError(t *testing.T) {
	// A task whose crash budget exceeds MaxRetries must fail the job
	// with an error that names the task and recounts every attempt.
	script := faults.Script{}
	for a := 1; a <= 3; a++ {
		script[faults.ScriptKey{Phase: live.PhaseMap, Task: 1, Attempt: a}] = faults.Fault{Kind: faults.Crash}
	}
	cfg := wordCountConfig(4)
	cfg.Faults = script
	cfg.Retry = RetryPolicy{MaxRetries: 2}
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil {
		t.Fatal("want retry-exhaustion error, got nil")
	}
	msg := err.Error()
	for _, want := range []string{
		"map task 1 failed after 3 attempts",
		"attempt 1: injected crash",
		"attempt 2: injected crash",
		"attempt 3: injected crash",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestSeededExhaustionCompletesWithError(t *testing.T) {
	// Uncapped budget + certain faults: every attempt of every task
	// fails (SlowFactor 100 pushes even slow attempts past the
	// timeout), so the run must terminate — not hang — with a joined,
	// per-attempt-attributable error.
	cfg := wordCountConfig(2)
	cfg.Faults = &faults.Seeded{Seed: 7, Rate: 1, Budget: -1, SlowFactor: 100}
	cfg.Retry = RetryPolicy{MaxRetries: 3}
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil {
		t.Fatal("want exhaustion error, got nil")
	}
	if !strings.Contains(err.Error(), "failed after 4 attempts") {
		t.Errorf("error %q should recount all 4 attempts", err)
	}
}

func TestHangConvertsToTimeoutRetry(t *testing.T) {
	// A hung attempt must be killed at the attempt timeout and retried,
	// with the retry visible in the attempt counters and the Result
	// untouched.
	baseline, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wordCountConfig(2)
	cfg.Faults = faults.Script{
		{Phase: live.PhaseMap, Task: 0, Attempt: 1}: {Kind: faults.Hang},
	}
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, baseline) {
		t.Error("hang recovery perturbed Result")
	}
	vals := counterValues(cfg.Metrics)
	// 3 map + 2 reduce committed attempts, plus the one timed-out
	// attempt.
	if vals[CounterTaskAttempts] != 6 {
		t.Errorf("%s = %d, want 6", CounterTaskAttempts, vals[CounterTaskAttempts])
	}
	if vals[CounterTaskRetries] != 1 {
		t.Errorf("%s = %d, want 1", CounterTaskRetries, vals[CounterTaskRetries])
	}
}

func TestSpeculativeAttemptOutrunsStraggler(t *testing.T) {
	// A slow-but-alive attempt (below the timeout) commits, then the
	// speculation pass notices it straggling past the cost quantile,
	// launches a backup, and the backup wins: one speculation, one
	// killed original, identical Result.
	baseline, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wordCountConfig(2)
	cfg.Faults = faults.Script{
		{Phase: live.PhaseReduce, Task: 0, Attempt: 1}: {Kind: faults.Slow, Factor: 4},
	}
	// The default quantile is each phase's max clean cost, so no clean
	// task can exceed it (> is strict) — only the 4×-slowed reduce
	// straggler, which stays under the 8× timeout.
	cfg.Retry = RetryPolicy{MaxRetries: 2, Speculation: true}
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, baseline) {
		t.Error("speculation perturbed Result")
	}
	vals := counterValues(cfg.Metrics)
	if vals[CounterTaskSpeculations] != 1 {
		t.Errorf("%s = %d, want 1", CounterTaskSpeculations, vals[CounterTaskSpeculations])
	}
	if vals[CounterTaskAttemptsKilled] != 1 {
		t.Errorf("%s = %d, want 1", CounterTaskAttemptsKilled, vals[CounterTaskAttemptsKilled])
	}
}

func TestAttemptSpansDeterministicAcrossWorkers(t *testing.T) {
	// With faults injected, the shadow attempt timeline itself must be
	// deterministic: the Chrome export is byte-identical across host
	// concurrency, and it actually contains attempt spans with failures.
	run := func(workers int) *obs.Tracer {
		cfg := wordCountConfig(workers)
		cfg.Faults = faults.NewSeeded(3, 0.5)
		cfg.Retry = RetryPolicy{MaxRetries: 3, Speculation: true}
		cfg.Trace = obs.New()
		if _, err := Run(cfg, wordCountInput(), 0); err != nil {
			t.Fatal(err)
		}
		return cfg.Trace
	}
	tr1, tr8 := run(1), run(8)
	var b1, b8 bytes.Buffer
	if err := tr1.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr8.WriteChromeTrace(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Error("attempt timeline differs between 1 and 8 workers")
	}
	attempts, failures := 0, 0
	for _, s := range tr1.Spans() {
		if s.Cat != "attempt" {
			continue
		}
		attempts++
		for _, a := range s.Args {
			if a.Key == "outcome" && a.Value != "ok" {
				failures++
			}
		}
	}
	if attempts == 0 {
		t.Error("no attempt spans recorded")
	}
	if failures == 0 {
		t.Error("seed 3 at rate 0.5 should produce at least one failed attempt span")
	}
}

type panickyMapper struct{ MapperBase }

func (panickyMapper) Map(*TaskContext, KeyValue, Emitter) error {
	panic("mapper exploded")
}

func TestEngineSurvivesPanickingMapper(t *testing.T) {
	cfg := wordCountConfig(2)
	cfg.NewMapper = func() Mapper { return panickyMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "panicked: mapper exploded") {
		t.Errorf("want panic converted to error, got %v", err)
	}
}

func TestPanicRetriedUnderAttemptRuntime(t *testing.T) {
	// With the attempt runtime active, a panicking attempt is just a
	// failed attempt: later attempts may still commit the task.
	var calls atomic.Int32
	cfg := wordCountConfig(1)
	inner := cfg.NewMapper
	cfg.NewMapper = func() Mapper {
		if calls.Add(1) == 1 {
			return panickyMapper{}
		}
		return inner()
	}
	cfg.Retry = RetryPolicy{MaxRetries: 2}
	baseline, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatalf("panicking first attempt should be retried, got %v", err)
	}
	if !reflect.DeepEqual(collectCounts(res), collectCounts(baseline)) {
		t.Error("retried run produced different counts")
	}
}

func TestRetryPolicyValidation(t *testing.T) {
	cases := []RetryPolicy{
		{MaxRetries: -1},
	}
	for i, p := range cases {
		cfg := wordCountConfig(1)
		cfg.Retry = p
		if _, err := Run(cfg, wordCountInput(), 0); err == nil {
			t.Errorf("case %d (%+v): want validation error", i, p)
		}
	}
}

// speculateAgainst runs task 0's speculation check against a committed
// attempt that straggled to 100 units, with a backup that finishes at
// 10 + its cost: the backup wins the race and is compared through
// sameOutput. The committed result is as runAttempted leaves it, its
// runs replaced by their digest.
func speculateAgainst(backup, committed TaskResult) error {
	committed.sum, committed.runs = runsDigest(committed.runs), nil
	fr := &faultRuntime{policy: RetryPolicy{MaxRetries: 3}, phases: map[live.Phase][]*taskAttempts{
		live.PhaseReduce: {{records: []attemptRecord{{Attempt: 1, Outcome: outcomeOK, Dur: 100}}, commitDur: 100}},
	}}
	return speculateTask(fr, live.PhaseReduce, 0, 10, committed, func(int) (TaskResult, error) {
		return backup, nil
	})
}

// TestSpeculationIgnoresWorker: a winning backup that another worker
// ran is no divergence — a result's Worker only says which process ran
// it — in every phase, while a backup that differs in any field
// sameOutput compares is one.
func TestSpeculationIgnoresWorker(t *testing.T) {
	mapOn := func(worker int) TaskResult {
		return TaskResult{Cost: 5, Worker: worker, Parts: []RunPart{{N: 2}}}
	}
	reduceOn := func(worker int) TaskResult {
		return TaskResult{Cost: 5, Worker: worker, Out: []TimedKV{{KeyValue: KeyValue{Key: "k", Value: []byte("v")}}}}
	}
	changed := reduceOn(2)
	changed.Out = []TimedKV{{KeyValue: KeyValue{Key: "k", Value: []byte("w")}}}
	withRuns := mapOn(2)
	withRuns.runs = [][]KeyValue{{{Key: "k"}}}
	// full sets every field sameOutput compares; but changes one of them.
	full := func(worker int) TaskResult {
		return TaskResult{Cost: 5, Worker: worker, Counters: Counters{"c": 1}, Spans: []obs.Span{{Name: "s"}},
			Parts: []RunPart{{N: 1, Lo: "k", Hi: "k"}}, Out: reduceOn(worker).Out,
			Qobs: []quality.BlockObs{{ID: "b", Compared: 1}}, runs: [][]KeyValue{{{Key: "k", Value: []byte("v")}}}}
	}
	but := func(change func(*TaskResult)) TaskResult {
		r := full(2)
		change(&r)
		return r
	}
	for _, tc := range []struct {
		name     string
		err      error
		diverged bool
	}{
		{"map", speculateAgainst(mapOn(2), mapOn(1)), false},
		{"reduce", speculateAgainst(reduceOn(2), reduceOn(1)), false},
		{"reduce content", speculateAgainst(changed, reduceOn(1)), true},
		{"map runs", speculateAgainst(withRuns, mapOn(1)), true},
		{"only Worker differs", speculateAgainst(full(2), full(1)), false},
		{"Cost", speculateAgainst(but(func(r *TaskResult) { r.Cost = 6 }), full(1)), true},
		{"Counters", speculateAgainst(but(func(r *TaskResult) { r.Counters = Counters{"c": 2} }), full(1)), true},
		{"Spans", speculateAgainst(but(func(r *TaskResult) { r.Spans = []obs.Span{{Name: "t"}} }), full(1)), true},
		{"runs digest", speculateAgainst(but(func(r *TaskResult) { r.runs = [][]KeyValue{{{Key: "k", Value: []byte("w")}}} }), full(1)), true},
		{"Parts", speculateAgainst(but(func(r *TaskResult) { r.Parts = []RunPart{{N: 1, Lo: "k", Hi: "l"}} }), full(1)), true},
		{"Out", speculateAgainst(but(func(r *TaskResult) { r.Out = changed.Out }), full(1)), true},
		{"Qobs", speculateAgainst(but(func(r *TaskResult) { r.Qobs = []quality.BlockObs{{ID: "b", Compared: 2}} }), full(1)), true},
	} {
		if got := tc.err != nil && strings.Contains(tc.err.Error(), "diverged"); got != tc.diverged {
			t.Errorf("%s: err = %v, want diverged = %v", tc.name, tc.err, tc.diverged)
		}
	}
}
