// Package live is the pipeline's *in-flight* introspection layer.
// Where internal/obs and internal/obs/quality export artifacts after a
// run ends, this package answers "what is the run doing right now":
// per-task states and execution counts,
// memory-budget pressure (forced spills included), and an incremental
// progressive-recall estimate — all published by the engines at atomic-
// counter cost and readable at any instant, plus an HTTP status server
// (server.go), a structured JSON event log (events.go), and a terminal
// progress renderer (progress.go).
//
// # Consistency model
//
// Snapshots are *per-field atomic, not globally consistent*: a Progress
// or Tasks read observes each counter at some point during the call,
// with no cross-counter barrier. That is deliberate — publication sites
// sit on engine hot paths and pay one atomic store each, never a lock
// shared with readers. The only ordering guarantee is per-field
// monotonicity: task states only advance pending→running→{done,failed}
// (re-executions briefly re-enter running), counters only grow, and the
// recall estimate is nondecreasing because its numerator is a monotone
// counter and its denominator is fixed once the schedule is recorded.
//
// # Determinism
//
// Live state is wall-clock territory, like pprof: it observes host
// execution order and must never feed back into it. Nothing in this
// package is read by the engines, so Result, traces, metrics, and
// quality exports are byte-identical with or without a Run attached —
// the same contract Workers and Config.MemBudget obey.
//
// A nil *Run (and the nil *Job it hands out) is the disabled layer:
// every method is a cheap no-op, so call sites need no gating branches.
package live

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"proger/internal/membudget"
	"proger/internal/obs/quality"
)

// Phase names one of a job's two engine phases, the one phase type
// of the repository: a live task row's and a leased task's kind (dist).
type Phase string

// Engine phases, in execution (and snapshot) order.
const (
	PhaseMap    Phase = "map"
	PhaseReduce Phase = "reduce"
)

// TaskState is one task's lifecycle state.
type TaskState int32

// Task states. Transitions only ever advance, except that a task
// started again after it failed moves back to TaskRunning.
const (
	TaskPending TaskState = iota
	TaskRunning
	TaskDone
	TaskFailed
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	}
	return "unknown"
}

// Run is the process-wide live-introspection hub: jobs register their
// tasks into it, reduce tasks stream resolution progress through
// it, and the status server / progress renderer read snapshots from
// it. Create one with NewRun; a nil *Run disables everything.
type Run struct {
	log       *EventLog
	wallStart time.Time

	mu   sync.Mutex
	jobs []*Job

	quality *quality.Recorder
	budget  *membudget.Manager
	fleet   FleetProvider

	// Live resolution progress, streamed from reduce tasks as each
	// block commits (not at job end): the numerators of the recall and
	// ETA estimates.
	blocks   atomic.Int64
	compared atomic.Int64
	dups     atomic.Int64
	// resolveCost accumulates realized block-resolution cost units
	// (float64 bits), comparable against the schedule's planned ΣCost.
	resolveCost atomicFloat

	done    atomic.Bool
	failed  atomic.Bool
	errText atomic.Pointer[string]
}

// NewRun returns an enabled live-introspection hub. log may be nil
// (snapshots only, no event stream).
func NewRun(log *EventLog) *Run {
	return &Run{log: log, wallStart: time.Now()}
}

// Enabled reports whether the hub records anything.
func (r *Run) Enabled() bool { return r != nil }

// AttachQuality connects the quality recorder whose schedule-wide
// totals (predicted duplicates, planned cost) denominate the live
// recall and ETA estimates.
func (r *Run) AttachQuality(q *quality.Recorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.quality = q
	r.mu.Unlock()
}

// AttachBudget connects the memory-budget manager whose pressure
// telemetry the /membudget endpoint and progress renderer report.
func (r *Run) AttachBudget(m *membudget.Manager) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.budget = m
	r.mu.Unlock()
}

// Finish marks the run complete (or failed); /healthz flips from
// "running" to "done"/"failed" and the progress renderer stops
// advancing.
func (r *Run) Finish(err error) {
	if r == nil {
		return
	}
	if err != nil {
		s := err.Error()
		r.errText.Store(&s)
		r.failed.Store(true)
	}
	r.done.Store(true)
}

// StartJob registers one MapReduce job's tasks (maps map tasks and
// reduces reduce tasks, each reduce reading its own partition) and
// returns its publication
// handle. Jobs append in submission order, which is also snapshot
// order. Nil-safe: a nil Run returns a nil Job whose methods no-op.
func (r *Run) StartJob(name string, maps, reduces int) *Job {
	if r == nil {
		return nil
	}
	j := &Job{run: r, name: name}
	j.phases[0] = newPhaseLive(PhaseMap, maps)
	j.phases[1] = newPhaseLive(PhaseReduce, reduces)
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
	r.log.Emit(EventJobStart,
		KV("job", name), KV("map_tasks", maps), KV("reduce_tasks", reduces))
	return j
}

// ObserveResolution streams one resolved block's realization: the
// engine-independent live feed behind the recall estimate. costUnits
// is the block's resolution extent on the task-local simulated clock.
func (r *Run) ObserveResolution(compared, dups int64, costUnits float64) {
	if r == nil {
		return
	}
	r.blocks.Add(1)
	r.compared.Add(compared)
	r.dups.Add(dups)
	r.resolveCost.Add(costUnits)
}

// snapshotJobs copies the job list (handles, not state).
func (r *Run) snapshotJobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Job(nil), r.jobs...)
}

// Job is one registered job's publication handle.
type Job struct {
	run  *Run
	name string
	// phases index: 0 map, 1 reduce.
	phases [2]*phaseLive
}

// phaseLive is one phase's per-task atomic state.
type phaseLive struct {
	phase    Phase
	states   []atomic.Int32
	attempts []atomic.Int32
	costs    []atomicFloat // realized task cost units, set at completion
	// workers records which distributed worker executed each task (0 =
	// local/unattributed), set by the remote transports.
	workers []atomic.Int32
}

func newPhaseLive(p Phase, n int) *phaseLive {
	return &phaseLive{
		phase:    p,
		states:   make([]atomic.Int32, n),
		attempts: make([]atomic.Int32, n),
		costs:    make([]atomicFloat, n),
		workers:  make([]atomic.Int32, n),
	}
}

func (j *Job) ph(p Phase) *phaseLive {
	if p == PhaseMap {
		return j.phases[0]
	}
	return j.phases[1]
}

// TaskStart marks one task execution beginning and increments its
// attempt count.
func (j *Job) TaskStart(p Phase, task int) {
	if j == nil {
		return
	}
	ph := j.ph(p)
	if task < 0 || task >= len(ph.states) {
		return
	}
	ph.states[task].Store(int32(TaskRunning))
	attempt := ph.attempts[task].Add(1)
	j.run.log.Emit(EventTaskStart,
		KV("job", j.name), KV("phase", string(p)), KV("task", task), KV("attempt", int(attempt)))
}

// TaskDone marks one task execution completing cleanly, recording its
// realized simulated cost.
func (j *Job) TaskDone(p Phase, task int, costUnits float64, records int) {
	if j == nil {
		return
	}
	ph := j.ph(p)
	if task < 0 || task >= len(ph.states) {
		return
	}
	ph.costs[task].Store(costUnits)
	ph.states[task].Store(int32(TaskDone))
	j.run.log.Emit(EventTaskDone,
		KV("job", j.name), KV("phase", string(p)), KV("task", task),
		KV("cost_units", costUnits), KV("records", records))
}

// TaskFailed marks one task execution erroring out.
func (j *Job) TaskFailed(p Phase, task int, err error) {
	if j == nil {
		return
	}
	ph := j.ph(p)
	if task < 0 || task >= len(ph.states) {
		return
	}
	ph.states[task].Store(int32(TaskFailed))
	j.run.log.Emit(EventTaskFailed,
		KV("job", j.name), KV("phase", string(p)), KV("task", task), KV("error", err.Error()))
}

// TaskWorker attributes a task's execution to a distributed worker
// (the /tasks table's per-worker column). worker is the master-assigned
// worker ID; 0 means local/unattributed and is ignored.
func (j *Job) TaskWorker(p Phase, task, worker int) {
	if j == nil || worker <= 0 {
		return
	}
	ph := j.ph(p)
	if task < 0 || task >= len(ph.workers) {
		return
	}
	ph.workers[task].Store(int32(worker))
}

// End marks the job's tasks fully executed (or failed).
func (j *Job) End(err error) {
	if j == nil {
		return
	}
	if err != nil {
		j.run.log.Emit(EventJobEnd, KV("job", j.name), KV("error", err.Error()))
		return
	}
	j.run.log.Emit(EventJobEnd, KV("job", j.name))
}

// atomicFloat is a float64 with atomic Store/Add/Load.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}
