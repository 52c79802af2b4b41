// Package quality is the pipeline's quality-telemetry layer: where
// internal/obs answers "where did the time go", this package answers
// "was the schedule actually progressive, and is the estimator still
// calibrated". A Recorder collects three streams —
//
//   - per-block *predictions* (Dup(X)/Cost(X)/Util(X) of Eq. 2–5) and
//     per-task *plans* (planned load and leftover slack SK(R)),
//     published by sched.Generate once the schedule is final;
//   - per-block *realizations* (duplicates emitted, pairs compared and
//     skipped, start/end on the global simulated clock), recorded by
//     the Job 2 and Basic reduce functions through
//     mapreduce.TaskContext.ObserveBlock and rebased by the engine
//     exactly like trace spans;
//
// — and derives from them the run's recall Curve (sampled at fixed
// cost intervals, with its normalized AUC) and a calibration Report
// (per-block prediction error joined on SQ, bucketed by the
// estimator's size-fraction sub-ranges, plus a per-task
// planned-vs-realized skew table).
//
// Curve is also the repository's one recall curve against ground
// truth (BuildCurve over a run's duplicate events): the figures, Qty
// (Eq. 1), the recall speedup of Fig. 11 and every AUC read it.
//
// Everything is deterministic: realizations flow through the committed
// task attempt's result only and are fed serially in task order, so
// every export is byte-identical across worker counts and fault
// injection, like the trace contract. A nil *Recorder is the disabled
// recorder: every method is a no-op.
package quality

import (
	"sort"
	"sync"

	"proger/internal/costmodel"
)

// BlockPrediction is the scheduler's final estimate for one scheduled
// block, captured after tree splitting and SQ assignment (so it is the
// estimate the schedule was actually built from).
type BlockPrediction struct {
	// ID is the block identity (blocking.BlockID.String()).
	ID string `json:"id"`
	// SQ is the block's sequence value — the prediction/realization
	// join key (unique per scheduled block).
	SQ int64 `json:"sq"`
	// Task is the owning reduce task; Tree the tree's dominance index.
	Task int `json:"task"`
	Tree int `json:"tree"`
	// Size is the block's entity count.
	Size int `json:"size"`
	// Bucket is the estimator's size-fraction sub-range index
	// (estimate.FracBucket), −1 when no estimator was configured.
	Bucket int `json:"bucket"`
	// Dup, Cost, and Util are the predicted Dup(X) (Eq. 2), Cost(X)
	// (Eq. 3/5, in cost units), and Util(X) = Dup/Cost.
	Dup  float64 `json:"dup"`
	Cost float64 `json:"cost"`
	Util float64 `json:"util"`
	// Full marks blocks scheduled for full resolution (tree roots).
	Full bool `json:"full"`
}

// TaskPlan is one reduce task's planned load from PARTITION-TREES.
type TaskPlan struct {
	Task   int `json:"task"`
	Trees  int `json:"trees"`
	Blocks int `json:"blocks"`
	// EstCost is the planned load Σ Cost(X) over the task's blocks.
	EstCost float64 `json:"est_cost"`
	// Slack is the leftover weighted slack SK(R) after partitioning
	// (0 for the LPT baseline, which does not track slack).
	Slack float64 `json:"slack"`
}

// BlockObs is one realized block resolution. Reduce functions record
// it with Start/End on the task-local clock and Task unset; the engine
// rebases both onto the global simulated timeline once task start
// times are scheduled.
type BlockObs struct {
	// ID is the block identity; SQ is the sequence value (−1 when the
	// run has no schedule, i.e. the Basic baseline).
	ID string `json:"id"`
	SQ int64  `json:"sq"`
	// Task is the reduce task that resolved the block.
	Task int `json:"task"`
	// Start and End are on the global simulated clock after rebasing.
	Start costmodel.Units `json:"start"`
	End   costmodel.Units `json:"end"`
	// Compared counts match-function applications (resolved pairs);
	// Dups the emitted duplicates; Skipped the pairs skipped by
	// redundancy elimination.
	Compared int64 `json:"compared"`
	Dups     int64 `json:"dups"`
	Skipped  int64 `json:"skipped"`
	// Full marks a full (un-truncated) resolution.
	Full bool `json:"full"`
}

// Recorder accumulates predictions, plans, and realizations. It is
// race-safe; a nil Recorder is disabled at zero cost.
type Recorder struct {
	mu           sync.Mutex
	preds        []BlockPrediction
	plans        []TaskPlan
	obs          []BlockObs
	bucketLabels []string
}

// NewRecorder returns an enabled empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// RecordPrediction adds one scheduled block's predicted estimates.
func (r *Recorder) RecordPrediction(p BlockPrediction) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.preds = append(r.preds, p)
	r.mu.Unlock()
}

// RecordPlan adds one reduce task's planned load.
func (r *Recorder) RecordPlan(p TaskPlan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.plans = append(r.plans, p)
	r.mu.Unlock()
}

// ObserveBlock adds one realized block resolution (already rebased to
// the global clock; see mapreduce.TaskContext.ObserveBlock for the
// task-local entry point).
func (r *Recorder) ObserveBlock(o BlockObs) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.obs = append(r.obs, o)
	r.mu.Unlock()
}

// SetBucketLabels installs printable labels for the size-fraction
// buckets referenced by BlockPrediction.Bucket.
func (r *Recorder) SetBucketLabels(labels []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.bucketLabels = append([]string(nil), labels...)
	r.mu.Unlock()
}

// Predictions returns a copy of the recorded predictions, sorted by SQ.
func (r *Recorder) Predictions() []BlockPrediction {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]BlockPrediction(nil), r.preds...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].SQ < out[j].SQ })
	return out
}

// Plans returns a copy of the recorded task plans, sorted by task.
func (r *Recorder) Plans() []TaskPlan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]TaskPlan(nil), r.plans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// Observations returns a copy of the realized block resolutions in
// completion order (ties broken by task, then SQ, then ID — all
// deterministic, so the order never depends on host concurrency).
func (r *Recorder) Observations() []BlockObs {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]BlockObs(nil), r.obs...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.SQ != b.SQ {
			return a.SQ < b.SQ
		}
		return a.ID < b.ID
	})
	return out
}

// Totals returns the schedule-wide predicted duplicate count (Σ Dup(X)
// over recorded predictions) and planned cost (Σ EstCost over recorded
// task plans). These are the denominators of live progressive-recall
// and ETA estimates: fixed once sched.Generate has published the
// schedule. Zeros for a nil or empty recorder.
func (r *Recorder) Totals() (predictedDups, plannedCost float64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.preds {
		predictedDups += p.Dup
	}
	for _, p := range r.plans {
		plannedCost += p.EstCost
	}
	return predictedDups, plannedCost
}

// labels returns the installed bucket labels (nil when unset).
func (r *Recorder) labels() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.bucketLabels...)
}
