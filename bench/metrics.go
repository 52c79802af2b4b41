package main

// The metric tables are the single source of the benchmark's names:
// BENCHMARK.json (-manifest), the result lines, the results file and
// the tests all derive from them.

// metricDef names one metric. Bound is set on end-to-end metrics only:
// the share of the old median by which the metric may worsen before
// -compare (and the pipeline's driver) calls it a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metric names.
const (
	mResolveWall  = "resolve_wall_s"
	mEntitiesPerS = "entities_per_s"
	mHalfDups     = "half_dups_wall_s"
	mPeakRSS      = "peak_rss_mb"
	mSetup        = "setup_s"
	mRecallFinal  = "recall_final"
	mRecallAUC    = "recall_auc_sim"
)

// endToEnd lists what a user of the library sees. A bound has to stand
// at three times the spread the metric shows across ten seeds on its
// noisiest workload (bench/README.md, "Bounds").
var endToEnd = []metricDef{
	{mResolveWall, "s", lower, 0.25},      // wall time of one complete Resolve: fastest of a dataset's timed operations, mean over the datasets
	{mEntitiesPerS, "1/s", higher, 0.25},  // dataset entities / resolve_wall_s
	{mHalfDups, "s", lower, 0.25},         // wall time from operation start until the polled live duplicate count reaches half of the operation's final count; fastest, then mean, as resolve_wall_s
	{mPeakRSS, "MiB", lower, 0.25},        // process VmHWM after the timed operations
	{mSetup, "s", lower, 0.25},            // median time to generate one dataset and train the duplicate model (plus fleet start and worker registration on persons-dist2)
	{mRecallFinal, "ratio", higher, 0.10}, // final duplicate recall against ground truth, mean over the datasets
	{mRecallAUC, "ratio", higher, 0.10},   // normalized area under recall vs simulated cost, the paper's progressiveness; mean over the datasets
}

// Per-layer metric names the code refers to more than once.
const (
	lSpillOverhead   = "extsort.spill_overhead_s"
	lDistOverhead    = "dist.overhead_s"
	lFleetEfficiency = "dist.fleet_efficiency"
	lForcedSpills    = "membudget.forced_spills"
	lLeasesGranted   = "dist.leases_granted"
	lLeasesExpired   = "dist.leases_expired"
	lTracedOverhead  = "obs.traced_overhead_pct"
	lLiveOverhead    = "obs.live_overhead_pct"
	lBetweenJobs     = "mapreduce.between_jobs_s"
	lHostParallelism = "mapreduce.host_parallelism"
	lStagedJob1Wall  = "blocking.job1_wall_s"
	lTracedWall      = "obs.traced_wall_s"
)

// perLayer lists the per-layer metrics; the prefix before the first
// dot is the module (layer) the number belongs to. How each is taken:
// S = staged pass, T = traced operation, K = kernel pass, R = read from
// Result.
var perLayer = []metricDef{
	{"datagen.generate_s", "s", lower, 0}, // one set-up: dataset generation and duplicate-model training

	{"entity.encode_ns_per_entity", "ns", lower, 0},        // K: entity.EncodeBinary over 10 000 sampled entities
	{"entity.decode_ns_per_entity", "ns", lower, 0},        // K: entity.DecodeBinary over the same sample
	{"entity.encoded_bytes_per_entity", "bytes", lower, 0}, // K: mean encoded size of the sample

	{"blocking.job1_input_s", "s", lower, 0},   // S: blocking.MakeJob1Input
	{lStagedJob1Wall, "s", lower, 0},           // S: mapreduce.Run of blocking.Job1Config, in the workload's engine mode
	{"blocking.stats_parse_s", "s", lower, 0},  // S: blocking.ParseJob1Output
	{"blocking.forest_build_s", "s", lower, 0}, // S: Stats.BuildForests + estimate.Prune
	{"blocking.blocks", "count", lower, 0},     // S: blocks Job 1 reported
	{"blocking.trees", "count", lower, 0},      // S: trees after pruning

	{"estimate.estimate_s", "s", lower, 0}, // S: NewEstimator + EstimateTree over all trees

	{"sched.generate_s", "s", lower, 0},           // S: AutoCostVector + sched.Generate
	{"sched.blocks_scheduled", "count", lower, 0}, // S: blocks in the generated schedule
	{"sched.sim_total_cost", "units", lower, 0},   // R: Result.TotalTime, the simulated end-to-end cost
	{"sched.reduce_cost_skew", "ratio", lower, 0}, // R: max / mean of Job2.ReduceTaskCosts

	{"mapreduce.job1_map_busy_s", "s", lower, 0},                    // T: sum of Job-1 map task wall spans
	{"mapreduce.job1_reduce_busy_s", "s", lower, 0},                 // T: sum of Job-1 reduce task wall spans
	{"mapreduce.job2_map_busy_s", "s", lower, 0},                    // T: sum of Job-2 map task wall spans
	{"mapreduce.job2_reduce_busy_s", "s", lower, 0},                 // T: sum of Job-2 reduce task wall spans
	{"mapreduce.job1_shuffle_span_s", "s", lower, 0},                // T: sum of Job-1 per-partition merge envelopes (a span, not busy time)
	{"mapreduce.job2_shuffle_span_s", "s", lower, 0},                // T: sum of Job-2 per-partition merge envelopes (a span, not busy time)
	{"mapreduce.job1_wall_s", "s", lower, 0},                        // T: first Job-1 task span start to last Job-1 task span end
	{"mapreduce.job2_wall_s", "s", lower, 0},                        // T: first Job-2 task span start to last Job-2 task span end
	{lBetweenJobs, "s", lower, 0},                                   // T: last Job-1 span end to first Job-2 span start (statistics, forests, estimation, schedule, Job-2 input)
	{"mapreduce.job2_reduce_max_task_s", "s", lower, 0},             // T: longest Job-2 reduce task wall span
	{"mapreduce.job2_reduce_wall_skew", "ratio", lower, 0},          // T: max / mean Job-2 reduce task wall
	{lHostParallelism, "ratio", higher, 0},                          // T: (map + reduce busy) / traced operation wall; at most nproc
	{"mapreduce.job1_map_ns_per_cost_unit", "ns/unit", lower, 0},    // T: Job-1 map busy wall / simulated cost of the same tasks
	{"mapreduce.job1_reduce_ns_per_cost_unit", "ns/unit", lower, 0}, // T: Job-1 reduce busy wall / simulated cost
	{"mapreduce.job2_map_ns_per_cost_unit", "ns/unit", lower, 0},    // T: Job-2 map busy wall / simulated cost
	{"mapreduce.job2_reduce_ns_per_cost_unit", "ns/unit", lower, 0}, // T: Job-2 reduce busy wall / simulated cost
	{"mapreduce.map_out_records", "count", lower, 0},                // R: map output records, both jobs
	{"mapreduce.reduce_in_records", "count", lower, 0},              // R: reduce input records, both jobs
	{"mapreduce.identity_records_per_s", "1/s", higher, 0},          // K: identity map/reduce job over the Job-1 input records, same cluster shape: the engine tax

	{"core.compared", "count", lower, 0},              // R: match-function applications in Job 2
	{"core.skipped", "count", higher, 0},              // R: pairs skipped by redundancy elimination
	{"core.dups", "count", higher, 0},                 // R: duplicates found
	{"core.skip_ratio", "ratio", higher, 0},           // R: skipped / (skipped + compared)
	{"core.comparisons_per_s", "1/s", higher, 0},      // R: compared / median timed operation wall
	{"core.reduce_ns_per_comparison", "ns", lower, 0}, // T: Job-2 reduce busy wall / compared

	{"match.ns_per_pair_dup", "ns", lower, 0},           // K: Matcher.Match on 2 000 ground-truth duplicate pairs
	{"match.ns_per_pair_nondup", "ns", lower, 0},        // K: Matcher.Match on 2 000 sort-adjacent non-duplicate pairs
	{"textsim.edit_ns_per_call", "ns", lower, 0},        // K: textsim.Levenshtein on the attribute pairs the edit rules see on the non-duplicate sample; 0 without edit rules
	{"mechanism.ns_per_pair_nullmatch", "ns", lower, 0}, // K: Mechanism.ResolveBlock on the 50 largest leaf blocks with a match function that returns false

	{"extsort.run_write_mb_s", "MB/s", higher, 0},  // K: RunWriter throughput over the workload's records, raw bytes per second
	{"extsort.run_read_mb_s", "MB/s", higher, 0},   // K: RunReader throughput over the same run
	{"extsort.compress_ratio", "ratio", higher, 0}, // K: raw record bytes / run-file bytes
	{lSpillOverhead, "s", lower, 0},                // persons-spill only: timed median - in-memory reference median, same process
	{lForcedSpills, "count", lower, 0},             // T: spills the memory budget forced
	{"membudget.spilled_mb", "MiB", lower, 0},      // T: bytes those spills wrote
	{"membudget.peak_tracked_mb", "MiB", lower, 0}, // T: high-water mark of tracked bytes
	{"membudget.charged_mb", "MiB", lower, 0},      // T: cumulative bytes charged to the budget

	{"dist.rpc_calls", "count", lower, 0},          // T: RPCs the master served
	{"dist.rpc_mb", "MiB", lower, 0},               // T: bytes on the master's RPC connections, both directions
	{"dist.rpc_client_ms_p50", "ms", lower, 0},     // T: worker-side RPC round trip, median (bucketed)
	{"dist.rpc_client_ms_p99", "ms", lower, 0},     // T: worker-side RPC round trip, 99th percentile (bucketed)
	{"dist.lease_wait_ms_p50", "ms", lower, 0},     // T: first poll to grant, median (bucketed)
	{"dist.lease_wait_ms_p99", "ms", lower, 0},     // T: first poll to grant, 99th percentile (bucketed)
	{lLeasesGranted, "count", lower, 0},            // T: leases the master granted
	{lLeasesExpired, "count", lower, 0},            // T: leases that expired; 0 in a healthy run
	{"dist.runfile_mb_written", "MiB", lower, 0},   // T: run-file bytes the workers wrote to the shared directory
	{"dist.runfile_mb_read", "MiB", lower, 0},      // T: run-file bytes the workers read back
	{"dist.worker_busy_share", "ratio", higher, 0}, // T: worker busy ms / (busy + idle) ms, from the fleet snapshot
	{lFleetEfficiency, "ratio", lower, 0},          // T: sum of worker busy time / in-process reference median: busy seconds the fleet spends per second one process needs
	{lDistOverhead, "s", lower, 0},                 // persons-dist2 only: timed median - in-process reference median, same process

	{"clustering.closure_s", "s", lower, 0}, // K: TransitiveClosure over the final duplicates

	{lTracedWall, "s", lower, 0},     // wall time of the traced operation, the base of the per-job windows
	{lTracedOverhead, "%", lower, 0}, // traced operation / timed median - 1; one sample
	{lLiveOverhead, "%", lower, 0},   // timed median / bare operation - 1; one sample, indicative
	{"obs.spans", "count", lower, 0}, // spans the traced operation recorded

	{"runtime.alloc_mb_per_op", "MiB", lower, 0},   // MemStats.TotalAlloc delta around a timed operation, median
	{"runtime.mallocs_per_op", "count", lower, 0},  // MemStats.Mallocs delta around a timed operation, median
	{"runtime.gc_pause_ms_per_op", "ms", lower, 0}, // MemStats.PauseTotalNs delta around a timed operation, median
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// manifest is BENCHMARK.json: exactly the keys the pipeline's driver
// reads.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures under the driver. With three
// listed workloads the driver makes 70 runs inside 3420 s, builds
// included; 34 s of measuring plus set-up and warm-up keeps a run near
// 38 s.
const runSeconds = 34

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Driver {
			m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}
