package mapreduce

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"

	"proger/internal/costmodel"
	"proger/internal/faults"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// RetryPolicy configures the attempt runtime: how often a failed task
// attempt is retried, and whether stragglers get speculative duplicate
// attempts. How retries back off and when a hung or straggling attempt
// is killed are the constants below. All durations are simulated cost
// units, so the attempt timeline — like everything else in the engine —
// is deterministic.
//
// The zero value leaves the attempt runtime disabled unless
// Config.Faults is set; with an injector present (or any field set),
// unset fields take the documented defaults.
type RetryPolicy struct {
	// MaxRetries bounds re-executions after the first attempt (so a
	// task runs at most MaxRetries+1 times). 0 means the default (3).
	MaxRetries int
	// Speculation enables duplicate attempts for stragglers: once a
	// phase's tasks are in, any committed attempt that ran longer than
	// the defaultSpeculationQuantile of the phase's clean task costs
	// gets a backup attempt, and whichever finishes first on the attempt
	// timeline commits (the loser is killed).
	Speculation bool
}

// Attempt-runtime defaults and tuning constants.
const (
	defaultMaxRetries = 3
	// defaultBackoffBase is the simulated wait before the first retry
	// when the cost model has no TaskStartup (otherwise 2×TaskStartup);
	// each further retry doubles it (capped at 32×).
	defaultBackoffBase = costmodel.Units(100)
	// defaultTimeoutFactor sets the per-attempt timeout at this many
	// times the attempt's clean cost (floored at TaskStartup): a hung
	// attempt is killed and retried once the timeout elapses on the
	// attempt timeline.
	defaultTimeoutFactor = 8
	defaultSlowFactor    = 4
	// defaultSpeculationQuantile is the straggler threshold quantile:
	// with ≤ 21 tasks in a phase it selects the phase's largest clean
	// cost (quantile takes index ⌈q·(n−1)⌉).
	defaultSpeculationQuantile = 0.95
	// crashFraction is how far through its work a crash-faulted attempt
	// gets before dying, as a fraction of its clean cost.
	crashFraction = 0.5
	// maxBackoffDoublings caps the exponential backoff at 32×base.
	maxBackoffDoublings = 5
)

// Attempt outcomes, as recorded in spans and error messages.
const (
	outcomeOK      = "ok"
	outcomeSlow    = "slow"
	outcomeCrash   = "crash"
	outcomeTimeout = "timeout"
	outcomeError   = "error"
)

// attemptRecord is one task attempt on the shadow attempt timeline.
// Start/Dur are task-local: cost units since the task's first attempt
// began on its slot.
type attemptRecord struct {
	Attempt     int
	Outcome     string
	Start, Dur  costmodel.Units
	Speculative bool
	// Killed marks an attempt whose work completed but was discarded
	// because another attempt committed first (speculation losers).
	Killed bool
}

// taskAttempts is one task's full attempt history.
type taskAttempts struct {
	records []attemptRecord
	// committed indexes the winning record (-1 while none succeeded);
	// commitStart/commitDur place it on the attempt timeline.
	committed              int
	commitStart, commitDur costmodel.Units
}

// faultRuntime is the per-run attempt/fault state: the injector, the
// defaulted policy, and the attempt history of every phase. It exists
// only when Config enables fault tolerance; a nil *faultRuntime means
// the engine runs each task exactly once, as before.
//
// The runtime is a shadow simulation layered over the deterministic
// task functions: every committed output and clean cost comes from a
// real execution of the task bodies, so injected faults can delay,
// kill, and duplicate attempts at will without ever being able to
// perturb Result.
type faultRuntime struct {
	injector faults.Injector
	policy   RetryPolicy
	startup  costmodel.Units
	// phases holds per-phase attempt histories, indexed by task. Every
	// phase's slice is allocated before the map phase starts and each
	// task writes only its own index, so no locking is needed.
	phases map[live.Phase][]*taskAttempts
	// live is the run's live-introspection handle (nil when off): the
	// attempt runtime reports retries, speculative launches, and
	// permanent task failures through it. Set once in Run before any
	// task goroutine starts.
	live *live.Job
}

// newFaultRuntime builds the attempt runtime for cfg, or nil when the
// config leaves fault tolerance disabled. Call after cfg.Cost has been
// defaulted.
func newFaultRuntime(cfg *Config) *faultRuntime {
	if cfg.Faults == nil && cfg.Retry == (RetryPolicy{}) {
		return nil
	}
	p := cfg.Retry
	if p.MaxRetries <= 0 {
		p.MaxRetries = defaultMaxRetries
	}
	return &faultRuntime{
		injector: cfg.Faults,
		policy:   p,
		startup:  cfg.Cost.TaskStartup,
		phases:   map[live.Phase][]*taskAttempts{},
	}
}

func (fr *faultRuntime) decide(phase live.Phase, task, attempt int) faults.Fault {
	if fr.injector == nil {
		return faults.Fault{}
	}
	return fr.injector.Decide(phase, task, attempt)
}

// backoff returns the simulated wait after failed attempt a:
// 2×TaskStartup (defaultBackoffBase without one) doubling per retry,
// capped at 32×.
func (fr *faultRuntime) backoff(attempt int) costmodel.Units {
	b := 2 * fr.startup
	if b <= 0 {
		b = defaultBackoffBase
	}
	for i := 1; i < attempt && i <= maxBackoffDoublings; i++ {
		b *= 2
	}
	return b
}

// timeout returns the attempt timeout for a task whose clean cost is
// known: defaultTimeoutFactor × max(clean, TaskStartup, 1).
func (fr *faultRuntime) timeout(clean costmodel.Units) costmodel.Units {
	floor := clean
	if fr.startup > floor {
		floor = fr.startup
	}
	if floor <= 0 {
		floor = 1
	}
	return defaultTimeoutFactor * floor
}

func (fr *faultRuntime) beginPhase(phase live.Phase, n int) []*taskAttempts {
	s := make([]*taskAttempts, n)
	fr.phases[phase] = s
	return s
}

// runTaskAttempts runs one task's bounded retry ladder: each attempt
// really re-executes the (deterministic) task function, then the
// injector decides its fate. Crashed and hung attempts discard their
// output and retry after exponential backoff; slow attempts commit
// with an inflated duration unless they straggle past the attempt
// timeout. A panicking attempt is a failed attempt, not a dead job.
// Exhausting the ladder surfaces the full per-attempt history as a
// joined error.
func runTaskAttempts(fr *faultRuntime, phase live.Phase, task int,
	exec func() (TaskResult, error)) (TaskResult, *taskAttempts, error) {
	ta := &taskAttempts{committed: -1}
	execSafe := func() (res TaskResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = TaskResult{}, fmt.Errorf("attempt panicked: %v", r)
			}
		}()
		return exec()
	}
	now := costmodel.Units(0)
	maxAttempts := fr.policy.MaxRetries + 1
	var attemptErrs []error
	for a := 1; a <= maxAttempts; a++ {
		f := fr.decide(phase, task, a)
		res, err := execSafe()
		cost := res.Cost
		switch {
		case err != nil:
			ta.records = append(ta.records, attemptRecord{Attempt: a, Outcome: outcomeError, Start: now, Dur: cost})
			attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", a, err))
			fr.live.Retry(phase, task, a, outcomeError)
			now += cost + fr.backoff(a)
		case f.Kind == faults.Crash:
			d := cost * crashFraction
			ta.records = append(ta.records, attemptRecord{Attempt: a, Outcome: outcomeCrash, Start: now, Dur: d})
			attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: injected crash", a))
			fr.live.Retry(phase, task, a, outcomeCrash)
			now += d + fr.backoff(a)
		case f.Kind == faults.Hang:
			d := fr.timeout(cost)
			ta.records = append(ta.records, attemptRecord{Attempt: a, Outcome: outcomeTimeout, Start: now, Dur: d})
			attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: hung, killed at timeout %v", a, d))
			fr.live.Retry(phase, task, a, outcomeTimeout)
			now += d + fr.backoff(a)
		default:
			dur, outcome := cost, outcomeOK
			if f.Kind == faults.Slow {
				factor := f.Factor
				if factor <= 1 {
					factor = defaultSlowFactor
				}
				dur, outcome = cost*factor, outcomeSlow
			}
			if to := fr.timeout(cost); dur > to {
				// Slowed past the attempt timeout: killed like a hang.
				ta.records = append(ta.records, attemptRecord{Attempt: a, Outcome: outcomeTimeout, Start: now, Dur: to})
				attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: straggling, killed at timeout %v", a, to))
				fr.live.Retry(phase, task, a, outcomeTimeout)
				now += to + fr.backoff(a)
				continue
			}
			ta.records = append(ta.records, attemptRecord{Attempt: a, Outcome: outcome, Start: now, Dur: dur})
			ta.committed = len(ta.records) - 1
			ta.commitStart, ta.commitDur = now, dur
			return res, ta, nil
		}
	}
	err := fmt.Errorf("mapreduce: %s task %d failed after %d attempts: %w",
		phase, task, maxAttempts, errors.Join(attemptErrs...))
	// The ladder is exhausted: the exec-level transitions above left the
	// task re-entered as running (or done, for a final discarded
	// attempt); pin its terminal live state to failed.
	fr.live.TaskFailed(phase, task, err)
	return TaskResult{}, ta, err
}

// speculateTask runs the straggler check for one committed task: if
// its committed attempt ran longer on the attempt timeline than thr
// (the phase's defaultSpeculationQuantile of clean task costs — the same
// per-task cost distribution the engine feeds obs's mr_task_cost_units
// histogram), it gets a duplicate attempt, launched the moment the
// straggler crossed the threshold. First finisher wins the commit on
// the attempt timeline; the loser is killed. Deterministic task
// functions make both attempts produce the same content, which a
// winning backup is checked for with sameOutput — speculation doubles
// as an engine self-check. The caller's committed output always stands either
// way (a winning backup is, by the verified determinism, the same
// bytes), so speculation can never block or perturb downstream
// consumers.
func speculateTask(fr *faultRuntime, phase live.Phase, i int, thr costmodel.Units,
	committed TaskResult, exec func(i int) (TaskResult, error)) error {
	ta := fr.phases[phase][i]
	if ta == nil || ta.committed < 0 || ta.commitDur <= thr {
		return nil
	}
	specIdx := fr.policy.MaxRetries + 2 // first attempt index past the retry ladder
	f := fr.decide(phase, i, specIdx)
	fr.live.Speculate(phase, i)
	spec, err := exec(i)
	specCost := spec.Cost
	launch := ta.commitStart + thr // straggling detected thr units in
	rec := attemptRecord{Attempt: specIdx, Speculative: true, Start: launch}
	switch {
	case err != nil:
		// Unreachable for deterministic tasks (the committed attempt
		// succeeded); recorded for completeness.
		rec.Outcome, rec.Dur = outcomeError, specCost
	case f.Kind == faults.Crash:
		rec.Outcome, rec.Dur = outcomeCrash, specCost*crashFraction
	case f.Kind == faults.Hang:
		rec.Outcome, rec.Dur = outcomeTimeout, fr.timeout(specCost)
	default:
		rec.Outcome, rec.Dur = outcomeOK, specCost
		if f.Kind == faults.Slow {
			factor := f.Factor
			if factor <= 1 {
				factor = defaultSlowFactor
			}
			rec.Outcome, rec.Dur = outcomeSlow, specCost*factor
		}
		if launch+rec.Dur < ta.commitStart+ta.commitDur {
			// The backup finishes first: it commits on the attempt
			// timeline and the original is killed. Its output is verified
			// to match, so the already-published task output needs no
			// replacement.
			if !sameOutput(spec, committed) {
				return fmt.Errorf("mapreduce: %s task %d speculative attempt diverged from committed attempt", phase, i)
			}
			ta.records[ta.committed].Killed = true
			ta.records = append(ta.records, rec)
			ta.committed = len(ta.records) - 1
			ta.commitStart, ta.commitDur = launch, rec.Dur
			return nil
		}
		rec.Killed = true // lost the race; the original commit stands
	}
	ta.records = append(ta.records, rec)
	return nil
}

// sameOutput is the content check speculateTask applies to a winning
// backup: it matches when it produced the committed attempt's cost,
// counters, spans, parts, records and observations, and runs with the
// committed digest. Only Worker is left out — it names the process that
// ran the execution, which a backup may well not share — and host wall
// spans never enter a result.
func sameOutput(backup, committed TaskResult) bool {
	if runsDigest(backup.runs) != committed.sum {
		return false
	}
	backup.Worker, backup.runs, backup.sum = 0, nil, [sha256.Size]byte{}
	committed.Worker, committed.runs, committed.sum = 0, nil, [sha256.Size]byte{}
	return reflect.DeepEqual(backup, committed)
}

// runsDigest is the SHA-256 of a map task's runs: per partition its
// record count, then every key and value, each length-prefixed. It is
// what map speculation compares, so that a committed task's runs can
// leave the engine's hands the moment it commits.
func runsDigest(runs [][]KeyValue) [sha256.Size]byte {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	put := func(x int) { h.Write(n[:binary.PutUvarint(n[:], uint64(x))]) }
	for _, run := range runs {
		put(len(run))
		for _, kv := range run {
			put(len(kv.Key))
			io.WriteString(h, kv.Key)
			put(len(kv.Value))
			h.Write(kv.Value)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// quantile returns the nearest-rank q-th quantile of xs.
func quantile(xs []costmodel.Units, q float64) costmodel.Units {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	idx := int(math.Ceil(q * float64(len(sorted)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// attemptStats aggregates the run's attempt counters.
type attemptStats struct {
	started, retried, speculated, killed int64
}

func (fr *faultRuntime) stats() attemptStats {
	var st attemptStats
	for _, tasks := range fr.phases {
		for _, ta := range tasks {
			if ta == nil {
				continue
			}
			for _, r := range ta.records {
				st.started++
				if r.Speculative {
					st.speculated++
				} else if r.Attempt > 1 {
					st.retried++
				}
				if r.Killed {
					st.killed++
				}
			}
		}
	}
	return st
}

// emitAttemptSpans publishes one span per recorded attempt, rebased
// from the task-local attempt timeline onto the task's scheduled slot
// (base returns each task's global start and lane). Attempts may
// extend past the committed task's scheduled extent — the shadow
// timeline shows what fault recovery cost, while Result keeps the
// fault-free schedule.
func (fr *faultRuntime) emitAttemptSpans(tr *obs.Tracer, pid int, phase live.Phase,
	base func(task int) (costmodel.Units, int)) {
	for task, ta := range fr.phases[phase] {
		if ta == nil {
			continue
		}
		start, tid := base(task)
		for _, r := range ta.records {
			outcome := r.Outcome
			if r.Killed {
				outcome += "-killed"
			}
			tr.Add(obs.Span{
				Cat: "attempt", Name: fmt.Sprintf("attempt %s %d/%d", phase, task, r.Attempt),
				PID: pid, TID: tid,
				Start: start + r.Start, Dur: r.Dur,
				Args: []obs.Arg{
					obs.A("phase", string(phase)),
					obs.A("task", task),
					obs.A("attempt", r.Attempt),
					obs.A("outcome", outcome),
					obs.A("speculative", r.Speculative),
				},
			})
		}
	}
}

// ErrTaskLost marks a dispatched task execution whose lease was lost —
// the worker holding it stopped heartbeating (or died) before
// completing. It is a *host-level* failure, distinct from the
// simulated faults above: the task body itself never misbehaved, some
// machine did. Remote transports surface it from RemoteJob.RunTask;
// the engine's dispatch layer re-leases within the RetryPolicy budget.
var ErrTaskLost = errors.New("mapreduce: task lease lost")

// lostRetryBudget is how many times a lost lease is re-dispatched
// before the job fails: the configured RetryPolicy.MaxRetries, with
// the same default the simulated attempt ladder uses.
func lostRetryBudget(cfg *Config) int {
	if cfg.Retry.MaxRetries > 0 {
		return cfg.Retry.MaxRetries
	}
	return defaultMaxRetries
}

// retryLost re-executes a dispatch while it keeps failing with
// ErrTaskLost, up to budget re-dispatches. Lost leases are retried
// *below* runTaskAttempts deliberately: a lease expiry is wall-clock
// host chaos that cannot be placed on the simulated attempt timeline,
// so it must not mint attemptRecords (which would change trace bytes).
// Re-executing the deterministic task body instead yields the exact
// output the first lease would have produced, keeping Result, trace,
// and quality bytes identical to a loss-free run.
func retryLost(budget int, exec func() (*TaskResult, error)) (*TaskResult, error) {
	for attempt := 0; ; attempt++ {
		out, err := exec()
		if err == nil || !errors.Is(err, ErrTaskLost) || attempt >= budget {
			return out, err
		}
	}
}
