// Package core assembles the full parallel progressive ER pipeline of
// the paper (§III): Job 1 (progressive blocking + statistics), schedule
// generation, and Job 2 (progressive resolution with redundancy-free
// pair ownership and incremental result delivery). It also implements
// the Basic single-job baseline of §II-C used throughout the
// evaluation.
package core

import (
	"fmt"

	"proger/internal/blocking"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// Host holds the settings that decide how a run uses the host machine,
// never what it finds: a run's Result, trace, metrics and quality bytes
// are the same whatever Host holds. Options and BasicOptions embed it;
// everything else in them decides the answer.
type Host struct {
	// Workers caps host-machine concurrency (0 = GOMAXPROCS); never
	// affects results or simulated timing.
	Workers int
	// Execution is ignored: every job runs its map phase, then its
	// reduce phase, so each reduce task waits for every map task. It remains, and
	// configure still copies it, only because the benchmark harness sets
	// it for its persons-barrier row; it goes with that row.
	Execution mapreduce.ExecutionMode
	// Transport, when non-nil, replaces in-process task execution for
	// every job: a dist.Master leases every task to worker processes, a
	// dist.Worker executes leases and follows the master's broadcasts.
	// Every process must resolve with the same non-Host options;
	// cmd/proger's workers take them from their master's run
	// (dist.MasterOptions.Run).
	Transport mapreduce.TaskTransport
	// Trace, when non-nil, collects spans from every job, schedule
	// generation, and per-block resolution. Nil disables at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, absorbs every job's counters and task-cost
	// distributions plus pipeline-level gauges. Nil disables at zero
	// cost.
	Metrics *obs.Registry
	// Quality, when non-nil, collects quality telemetry: the schedule's
	// per-block predictions and per-task plans, and the realized
	// per-block resolutions — the inputs to the progressive-recall
	// curve and the calibration report. The Basic baseline has no
	// schedule, so it records realizations only (curve yes, calibration
	// join no). Deterministic across Workers and transports, like
	// Trace. Nil disables at zero cost.
	Quality *quality.Recorder
	// Live, when non-nil, receives in-flight execution state from every
	// job (task state transitions, streamed per-block resolutions) plus
	// the quality recorder and memory-budget manager attachments that
	// denominate its recall/ETA estimates — the feed behind the live status server. With no schedule (Basic)
	// there are no predicted totals, so /progress reports raw streamed
	// counts without a recall estimate. Write-only from the run's
	// perspective. Nil disables at zero cost.
	Live *live.Run
	// MemBudget, when > 0, caps the tracked bytes held in memory by
	// every job's shuffle runs: one budget manager per run spills the
	// largest partition stores to run files on disk when the cap is
	// exceeded. 0 keeps everything in memory.
	MemBudget int64
	// SpillDir is where budget-forced spill files live (system temp
	// when empty).
	SpillDir string
}

// configure hands the run's host settings to its jobs: it makes the
// run's memory-budget manager, attaches it and the quality recorder to
// the live layer before any job starts (so /membudget and the recall
// denominators are readable from the first scrape), and fills the host
// fields of every job's config. It returns the manager (nil without a
// budget).
func (h *Host) configure(jobs ...*mapreduce.Config) *membudget.Manager {
	var mgr *membudget.Manager
	if h.MemBudget > 0 {
		mgr = membudget.New(h.MemBudget)
	}
	h.Live.AttachBudget(mgr)
	h.Live.AttachQuality(h.Quality)
	for _, c := range jobs {
		c.Workers = h.Workers
		c.Execution = h.Execution
		c.Transport = h.Transport
		c.Trace = h.Trace
		c.Metrics = h.Metrics
		c.Quality = h.Quality
		c.Live = h.Live
		c.MemBudget = mgr
		c.SpillDir = h.SpillDir
	}
	return mgr
}

// Options configures the full pipeline.
type Options struct {
	// Families are the blocking-function families in dominance order.
	Families blocking.Families
	// Matcher is the resolve/match function.
	Matcher *match.Matcher
	// Mechanism is the progressive mechanism M (SN or PSNM).
	Mechanism mechanism.Mechanism
	// Policy sets per-level window/Th/Frac (§VI-A5).
	Policy estimate.Policy
	// DupModel estimates d(X); nil uses the analytic default. Train one
	// with estimate.Train for the paper's learned model.
	DupModel estimate.DupModel
	// Machines and SlotsPerMachine describe the simulated cluster
	// (paper: 2 map + 2 reduce slots per machine).
	Machines        int
	SlotsPerMachine int
	// Scheduler selects Ours / NoSplit / LPT (§VI-B2).
	Scheduler sched.Kind
	// DisableRedundancyElimination turns off the §V SHOULD-RESOLVE
	// check, so shared pairs are resolved in every tree containing them.
	// Ablation knob: quantifies what redundancy-free resolution buys.
	DisableRedundancyElimination bool
	// DisableSubBlocking truncates every family to its main function
	// only — no progressive blocking, each tree a single root block.
	// Ablation knob: quantifies what the §III-A block hierarchy buys.
	DisableSubBlocking bool
	// Host holds the settings that never change the Result.
	Host
}

// validateRun checks what both pipelines require: valid families, a
// matcher, a mechanism and a non-empty simulated cluster.
func validateRun(fams blocking.Families, m *match.Matcher, mech mechanism.Mechanism, machines, slots int) error {
	if err := fams.Validate(); err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("core: Matcher is required")
	}
	if mech == nil {
		return fmt.Errorf("core: Mechanism is required")
	}
	if machines < 1 || slots < 1 {
		return fmt.Errorf("core: cluster %d×%d invalid", machines, slots)
	}
	return nil
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.DupModel == nil {
		out.DupModel = estimate.DefaultModel{}
	}
	return out
}

// BasicOptions configures the Basic baseline (§II-C): a single MR job,
// hash partitioning on blocking keys, a stopping scheme per block, and
// the smallest-key redundancy rule of [14].
type BasicOptions struct {
	Families blocking.Families
	Matcher  *match.Matcher
	// Mechanism is M, applied per main block.
	Mechanism mechanism.Mechanism
	// Window is the SN window w (the paper evaluates 5 and 15).
	Window int
	// PopcornThreshold is the stopping threshold on the duplicate rate
	// over mechanism.Popcorn's default trailing window; < 0 disables
	// stopping entirely — the "Basic F" configuration that resolves
	// every block to completion.
	PopcornThreshold float64

	Machines        int
	SlotsPerMachine int
	// Host holds the settings that never change the Result.
	Host
}

func (o *BasicOptions) validate() error {
	if err := validateRun(o.Families, o.Matcher, o.Mechanism, o.Machines, o.SlotsPerMachine); err != nil {
		return err
	}
	if o.Window < 2 {
		return fmt.Errorf("core: window %d must be ≥ 2", o.Window)
	}
	return nil
}
