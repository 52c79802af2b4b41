package live

import (
	"time"

	"proger/internal/membudget"
)

// ProgressSnapshot is a point-in-time view of overall run progress:
// per-job phase completion, streamed resolution totals, the live
// progressive-recall estimate, and a remaining-work ETA in cost units.
// Per-field atomic (see the package consistency model), so totals may
// be mid-update relative to each other; every field is individually
// monotone while the run executes.
type ProgressSnapshot struct {
	// WallSeconds is host time since NewRun — presentation only, never
	// part of any deterministic artifact.
	WallSeconds float64 `json:"wall_seconds"`
	// Done/Failed/Err mirror Finish.
	Done   bool   `json:"done"`
	Failed bool   `json:"failed"`
	Err    string `json:"error,omitempty"`

	Jobs []JobProgress `json:"jobs"`

	// BlocksResolved/PairsCompared/Dups are the streamed resolution
	// totals across all reduce tasks so far.
	BlocksResolved int64 `json:"blocks_resolved"`
	PairsCompared  int64 `json:"pairs_compared"`
	Dups           int64 `json:"dups"`

	// PredictedDups and PlannedCost are the schedule-wide denominators
	// from the quality recorder (zero when no quality recording or no
	// schedule yet).
	PredictedDups float64 `json:"predicted_dups"`
	PlannedCost   float64 `json:"planned_cost_units"`
	// RealizedCost is the resolution cost spent so far, in the same
	// units as PlannedCost.
	RealizedCost float64 `json:"realized_cost_units"`
	// RecallEstimate is Dups/PredictedDups clamped to [0,1] — the live
	// progressive-recall estimate (0 until predictions exist).
	RecallEstimate float64 `json:"recall_estimate"`
	// ETACostUnits is max(0, PlannedCost−RealizedCost): resolution work
	// remaining on the simulated clock (not wall time).
	ETACostUnits float64 `json:"eta_cost_units"`
}

// JobProgress is one job's phase-completion counts.
type JobProgress struct {
	Name   string          `json:"name"`
	Phases []PhaseProgress `json:"phases"`
}

// PhaseProgress is one phase's task-state histogram.
type PhaseProgress struct {
	Phase   Phase `json:"phase"`
	Tasks   int   `json:"tasks"`
	Pending int   `json:"pending"`
	Running int   `json:"running"`
	Done    int   `json:"done"`
	Failed  int   `json:"failed"`
}

// Progress assembles a progress snapshot. Safe to call at any time
// from any goroutine; nil Run yields the zero snapshot.
func (r *Run) Progress() ProgressSnapshot {
	if r == nil {
		return ProgressSnapshot{}
	}
	var s ProgressSnapshot
	s.WallSeconds = time.Since(r.wallStart).Seconds()
	s.Done = r.done.Load()
	s.Failed = r.failed.Load()
	if e := r.errText.Load(); e != nil {
		s.Err = *e
	}
	for _, j := range r.snapshotJobs() {
		jp := JobProgress{Name: j.name}
		for _, ph := range j.phases {
			pp := PhaseProgress{Phase: ph.phase, Tasks: len(ph.states)}
			for i := range ph.states {
				switch TaskState(ph.states[i].Load()) {
				case TaskPending:
					pp.Pending++
				case TaskRunning:
					pp.Running++
				case TaskDone:
					pp.Done++
				case TaskFailed:
					pp.Failed++
				}
			}
			jp.Phases = append(jp.Phases, pp)
		}
		s.Jobs = append(s.Jobs, jp)
	}
	s.BlocksResolved = r.blocks.Load()
	s.PairsCompared = r.compared.Load()
	s.Dups = r.dups.Load()
	s.RealizedCost = r.resolveCost.Load()

	r.mu.Lock()
	q := r.quality
	r.mu.Unlock()
	s.PredictedDups, s.PlannedCost = q.Totals()
	if s.PredictedDups > 0 {
		s.RecallEstimate = float64(s.Dups) / s.PredictedDups
		if s.RecallEstimate > 1 {
			s.RecallEstimate = 1
		}
	}
	if rem := s.PlannedCost - s.RealizedCost; rem > 0 {
		s.ETACostUnits = rem
	}
	return s
}

// TaskRow is one task's live state for the /tasks table.
type TaskRow struct {
	Job      string `json:"job"`
	Phase    Phase  `json:"phase"`
	Task     int    `json:"task"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	// Worker is the distributed worker that executed the task (0 /
	// omitted for local execution or while still pending).
	Worker int `json:"worker,omitempty"`
	// CostUnits is the realized simulated cost (0 until done).
	CostUnits float64 `json:"cost_units"`
	// Skew is CostUnits over the mean cost of *completed* tasks in the
	// same job+phase — the live straggler signal (0 until done or when
	// the task is the only completion).
	Skew float64 `json:"skew"`
}

// Tasks assembles the full task table, jobs in submission order,
// phases map→reduce, tasks by index.
func (r *Run) Tasks() []TaskRow {
	if r == nil {
		return nil
	}
	var rows []TaskRow
	for _, j := range r.snapshotJobs() {
		for _, ph := range j.phases {
			start := len(rows)
			var doneSum float64
			var doneN int
			for i := range ph.states {
				row := TaskRow{
					Job:      j.name,
					Phase:    ph.phase,
					Task:     i,
					State:    TaskState(ph.states[i].Load()).String(),
					Attempts: int(ph.attempts[i].Load()),
					Worker:   int(ph.workers[i].Load()),
				}
				if row.State == "done" {
					row.CostUnits = ph.costs[i].Load()
					doneSum += row.CostUnits
					doneN++
				}
				rows = append(rows, row)
			}
			if doneN > 0 && doneSum > 0 {
				mean := doneSum / float64(doneN)
				for i := start; i < len(rows); i++ {
					if rows[i].State == "done" {
						rows[i].Skew = rows[i].CostUnits / mean
					}
				}
			}
		}
	}
	return rows
}

// Budget returns the attached memory-budget manager's pressure
// snapshot (all-zero when no budget is configured).
func (r *Run) Budget() membudget.Stats {
	if r == nil {
		return membudget.Stats{}
	}
	r.mu.Lock()
	m := r.budget
	r.mu.Unlock()
	return m.Snapshot()
}
