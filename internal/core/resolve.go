package core

import (
	"fmt"

	"proger/internal/blocking"
	"proger/internal/clustering"
	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/obs"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// Result is the outcome of a pipeline run: the identified duplicate
// pairs with their discovery timestamps, plus run diagnostics.
type Result struct {
	// Duplicates is the set of identified duplicate pairs (each found
	// exactly once under redundancy-free resolution).
	Duplicates entity.PairSet
	// Events lists every duplicate discovery in emission order with its
	// global simulated time. TrueDup is left false; the evaluation layer
	// fills it against ground truth via EventsAgainst.
	Events []quality.Event
	// TotalTime is the end-to-end simulated time.
	TotalTime costmodel.Units
	// Job1 and Job2 are the raw MapReduce results (Job1 is nil for the
	// Basic baseline, which runs a single job).
	Job1, Job2 *mapreduce.Result
	// Schedule is the generated progressive schedule (nil for Basic).
	Schedule *sched.Schedule
	// Counters aggregates both jobs' counters.
	Counters mapreduce.Counters
}

// Clusters groups the identified duplicate pairs into disjoint entity
// clusters by transitive closure (§II-A's final clustering step), for a
// dataset of n entities. Singleton clusters are included.
func (r *Result) Clusters(n int) [][]entity.ID {
	return clustering.TransitiveClosure(n, r.Duplicates)
}

// EventsAgainst returns the run's events with TrueDup filled from the
// given ground-truth oracle.
func (r *Result) EventsAgainst(isDup func(entity.Pair) bool) []quality.Event {
	out := make([]quality.Event, len(r.Events))
	for i, ev := range r.Events {
		ev.TrueDup = isDup(ev.Pair)
		out[i] = ev
	}
	return out
}

// Resolve runs the full parallel progressive ER pipeline of §III on the
// dataset: Job 1 (progressive blocking + statistics), schedule
// generation, and Job 2 (progressive resolution).
func Resolve(ds *entity.Dataset, opts Options) (*Result, error) {
	if err := validateRun(opts.Families, opts.Matcher, opts.Mechanism, opts.Machines, opts.SlotsPerMachine); err != nil {
		return nil, err
	}
	return resolve(ds, blocking.MakeJob1Input(ds), opts.withDefaults())
}

// resolve is Resolve on validated options. input is ds encoded once for
// both jobs: the engine only sub-slices its input and mappers treat a
// record's value as read-only.
func resolve(ds *entity.Dataset, input []mapreduce.KeyValue, opts Options) (*Result, error) {
	if opts.DisableSubBlocking {
		opts.Families = truncateToMainFunctions(opts.Families)
	}
	cluster := mapreduce.Cluster{Machines: opts.Machines, SlotsPerMachine: opts.SlotsPerMachine}
	r := cluster.Slots() // reduce tasks = reduce slots, as in the paper
	// Job 2's side gets its schedule once Job 1 has run.
	side := &job2Side{
		families: opts.Families,
		matcher:  opts.Matcher,
		mech:     opts.Mechanism,
		policy:   opts.Policy,
		noDedup:  opts.DisableRedundancyElimination,
	}
	cost := costmodel.Default()
	job1Cfg := blocking.Job1Config(opts.Families, cluster, cost)
	job2Cfg := mapreduce.Config{
		Name:           "job2-progressive-resolution",
		NewMapper:      func() mapreduce.Mapper { return &Job2Mapper{side: side} },
		NewReducer:     func() mapreduce.Reducer { return &Job2Reducer{side: side} },
		Partition:      Job2Partitioner,
		NumMapTasks:    cluster.Slots(),
		NumReduceTasks: r,
		Cluster:        cluster,
		Cost:           cost,
	}
	opts.configure(&job1Cfg, &job2Cfg)

	// ---- Job 1: progressive blocking + statistics ----
	job1Res, err := mapreduce.Run(job1Cfg, input, 0)
	if err != nil {
		return nil, fmt.Errorf("core: job 1: %w", err)
	}
	stats, err := blocking.ParseJob1Output(job1Res)
	if err != nil {
		return nil, fmt.Errorf("core: job 1: %w", err)
	}

	// ---- Schedule generation (executed by each Job-2 map task in the
	// paper; computed once here, with its cost charged per map task in
	// Job2Mapper.Setup). The block statistics have their one reader
	// here: once the forests are built, nothing holds them. ----
	trees, err := stats.BuildForests(opts.Families)
	if err != nil {
		return nil, fmt.Errorf("core: building forests: %w", err)
	}
	trees = estimate.Prune(trees)
	est := estimate.NewEstimator(opts.Policy, cost, opts.DupModel, ds.Len())
	for _, t := range trees {
		est.EstimateTree(t)
	}
	cv := sched.AutoCostVector(trees, r, sched.CostPoints)
	schedule, err := sched.Generate(trees, sched.Config{
		R:          r,
		CostVector: cv,
		Weights:    sched.LinearWeights(len(cv)),
		Batch:      sched.SplitBatch,
		Estimator:  est,
		Kind:       opts.Scheduler,
		Trace:      opts.Trace,
		TraceBase:  job1Res.End,
		Quality:    opts.Quality,
	})
	if err != nil {
		return nil, fmt.Errorf("core: schedule generation: %w", err)
	}

	// ---- Job 2: progressive resolution ----
	side.schedule = schedule
	job2Res, err := mapreduce.Run(job2Cfg, input, job1Res.End)
	if err != nil {
		return nil, fmt.Errorf("core: job 2: %w", err)
	}
	res, err := newResult(job2Res, opts.Metrics)
	if err != nil {
		return nil, err
	}
	res.Job1, res.Schedule = job1Res, schedule
	res.Counters.Merge(job1Res.Counters)
	return res, nil
}

// newResult builds the Result of a run whose last job is last — every
// output record of it is one duplicate pair, found once — and sets the
// pipeline's total-time gauge.
func newResult(last *mapreduce.Result, m *obs.Registry) (*Result, error) {
	if m != nil {
		m.Gauge(GaugePipelineTotalTime).Set(float64(last.End))
	}
	found := len(last.Output)
	res := &Result{
		Duplicates: make(entity.PairSet, found),
		TotalTime:  last.End,
		Job2:       last,
		Counters:   mapreduce.Counters{},
	}
	res.Counters.Merge(last.Counters)
	if found > 0 { // (a run that finds nothing keeps its nil Events)
		res.Events = make([]quality.Event, 0, found)
	}
	for _, kv := range last.Output {
		p, _, err := entity.DecodePair(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("core: decoding output pair: %w", err)
		}
		res.Duplicates.Add(p)
		res.Events = append(res.Events, quality.Event{Time: kv.Global, Pair: p})
	}
	return res, nil
}

// truncateToMainFunctions strips every family down to its level-1
// function, for the DisableSubBlocking ablation.
func truncateToMainFunctions(fams blocking.Families) blocking.Families {
	out := make(blocking.Families, len(fams))
	for i, f := range fams {
		g := *f
		g.PrefixLens = f.PrefixLens[:1]
		out[i] = &g
	}
	return out
}
