package core

// Job 2 and Basic-baseline counter keys (exported constants so call
// sites cannot silently typo a name; see the telemetry-key lint in
// scripts/check.sh).
const (
	// CounterJob2ScheduleGen counts map tasks that charged schedule
	// generation in Setup (one per map task, as in the paper).
	CounterJob2ScheduleGen = "job2.schedule_gen"
	// CounterJob2Emitted counts map-side (SQ, value) emissions.
	CounterJob2Emitted = "job2.emitted"
	// CounterJob2BlocksResolved counts reduce-side block resolutions.
	CounterJob2BlocksResolved = "job2.blocks_resolved"
	// CounterJob2Compared, CounterJob2Dups, and CounterJob2Skipped count
	// match-function applications, found duplicates, and pairs skipped by
	// redundancy elimination.
	CounterJob2Compared = "job2.compared"
	CounterJob2Dups     = "job2.dups"
	CounterJob2Skipped  = "job2.skipped"
	// CounterJob2FullResolves counts blocks resolved to completion
	// (no Th(X) cutoff).
	CounterJob2FullResolves = "job2.full_resolves"

	// Basic-baseline equivalents.
	CounterBasicBlocksResolved = "basic.blocks_resolved"
	CounterBasicCompared       = "basic.compared"
	CounterBasicDups           = "basic.dups"
	CounterBasicSkipped        = "basic.skipped"

	// GaugePipelineTotalTime is the registry gauge holding the
	// pipeline's end-to-end simulated time.
	GaugePipelineTotalTime = "pipeline.total_time_units"
)
