// Package proger is a parallel progressive entity-resolution library —
// a from-scratch Go reproduction of Altowim & Mehrotra, "Parallel
// Progressive Approach to Entity Resolution Using MapReduce" (ICDE
// 2017).
//
// Progressive ER resolves a dataset so that the rate at which data
// quality improves is maximized: the most duplicate pairs found for the
// least resolution cost, with usable results delivered incrementally
// while the job runs. This package exposes the paper's full pipeline:
//
//   - Job 1 performs progressive blocking (hierarchical block trees per
//     blocking-function family) and gathers block statistics;
//   - a schedule generator estimates per-block duplicate counts and
//     costs, splits overflowed trees, and partitions trees among reduce
//     tasks to maximize the early duplicate-detection rate;
//   - Job 2 resolves the blocks bottom-up with a pluggable progressive
//     mechanism (Sorted Neighbor with the Whang et al. hint, or the
//     Progressive Sorted Neighborhood Method), with redundancy-free
//     pair ownership across overlapping blocks.
//
// Everything runs on an embedded, in-process MapReduce engine with a
// simulated cluster and a deterministic cost clock, so runs are
// reproducible bit-for-bit and "time" means resolution cost units.
//
// # Quick start
//
// Every synthetic workload of the paper's evaluation (§VI-A) is one
// entry of a catalogue; Workload reads one, with the Options that
// resolve it:
//
//	ds, gt, opts, err := proger.Workload("publications", 10000, 1)
//	res, err := proger.Resolve(ds, opts)
//	// res.Events carries every duplicate discovery with its simulated
//	// timestamp; res.Duplicates is the final pair set, and gt scores it.
//
// On a dataset of your own (ReadTSV), write the Options out:
//
//	opts := proger.Options{
//	    Families:        proger.CiteSeerXFamilies(ds.Schema),
//	    Matcher:         proger.MustMatcher(0.75, proger.Rule{Attr: 0, Weight: 1, Kind: proger.EditDistance}),
//	    Mechanism:       proger.SN,
//	    Policy:          proger.CiteSeerXPolicy(),
//	    Machines:        10,
//	    SlotsPerMachine: 2,
//	}
//
// # What decides the answer
//
// Options (and BasicOptions for the baseline) embed a Host: the worker
// count, the transport, the trace, metrics, quality and live sinks, and
// the memory budget with its spill directory. Host settings decide how a run uses
// the machine and never what it finds; every other field decides the
// answer. Attach observability without touching the rest:
//
//	opts.Host = proger.Host{Trace: proger.NewTracer(), MemBudget: 64 << 20}
//
// The package's Example functions are complete programs, checked by go
// test; cmd/proger runs the pipeline from the command line, and
// cmd/experiments regenerates every table and figure of the paper.
package proger

import (
	"io"

	"proger/internal/blocking"
	"proger/internal/clustering"
	"proger/internal/core"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/experiments"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// ---- Data model ----

// Entity is a record: a dense ID plus one string per schema attribute.
type Entity = entity.Entity

// ID is an entity identifier.
type ID = entity.ID

// Pair is a canonical (Lo < Hi) unordered entity pair.
type Pair = entity.Pair

// PairSet is a set of pairs.
type PairSet = entity.PairSet

// Schema names a dataset's attributes.
type Schema = entity.Schema

// Dataset is an in-memory entity collection.
type Dataset = entity.Dataset

// NewSchema builds a schema from unique attribute names.
var NewSchema = entity.NewSchema

// MustSchema is NewSchema that panics on error.
var MustSchema = entity.MustSchema

// NewDataset creates an empty dataset.
var NewDataset = entity.NewDataset

// MakePair canonicalizes an entity pair.
var MakePair = entity.MakePair

// ReadTSV parses a dataset from tab-separated text with a "#id" header.
func ReadTSV(r io.Reader) (*Dataset, error) { return entity.ReadTSV(r) }

// WriteTSV writes a dataset as tab-separated text.
func WriteTSV(w io.Writer, d *Dataset) error { return entity.WriteTSV(w, d) }

// ---- Blocking ----

// Family is one blocking-function family: a main function plus its
// sub-blocking functions, all prefix keys on one attribute.
type Family = blocking.Family

// Families is the ordered (by dominance) set of families.
type Families = blocking.Families

// KeyKind selects how a family derives blocking keys.
type KeyKind = blocking.KeyKind

// Blocking key kinds: lower-cased character prefixes (the paper's
// Table II) or prefixes of the first word's Soundex code (phonetic
// blocking à la merge/purge [3]).
const (
	KeyPrefix  = blocking.KeyPrefix
	KeySoundex = blocking.KeySoundex
)

// CiteSeerXFamilies returns the Table-II blocking configuration for
// publication-like schemas (title/abstract/venue prefixes).
var CiteSeerXFamilies = blocking.CiteSeerXFamilies

// OLBooksFamilies returns the Table-II blocking configuration for
// book-like schemas (title/authors/publisher prefixes).
var OLBooksFamilies = blocking.OLBooksFamilies

// FamilyQuality reports a candidate blocking family's duplicate
// density and coverage on a training dataset.
type FamilyQuality = blocking.FamilyQuality

// SuggestFamilies evaluates candidate blocking families on a training
// dataset and orders them into a dominance order by duplicate density,
// the §IV-A criterion ("set X ≻ Y if its estimated number of duplicate
// pairs divided by its total number of pairs is greater").
var SuggestFamilies = blocking.SuggestFamilies

// ---- Matching ----

// Rule scores one attribute inside a Matcher.
type Rule = match.Rule

// Matcher is the weighted multi-attribute resolve/match function.
type Matcher = match.Matcher

// SimKind selects a similarity function for a Rule.
type SimKind = match.SimKind

// Similarity kinds for Rule.Kind.
const (
	EditDistance   = match.EditDistance
	ExactMatch     = match.ExactMatch
	JaroWinklerSim = match.JaroWinklerSim
	JaccardQ2      = match.JaccardQ2
	TokenCosine    = match.TokenCosine
)

// NewMatcher validates and builds a matcher (weights are normalized).
var NewMatcher = match.New

// MustMatcher is NewMatcher that panics on error.
var MustMatcher = match.MustNew

// ---- Mechanisms and policies ----

// Mechanism is a progressive per-block resolution algorithm.
type Mechanism = mechanism.Mechanism

// SN is the Sorted Neighbor algorithm with the hint of Whang et
// al. [5]; PSNM is the Progressive Sorted Neighborhood Method of
// Papenbrock et al. [6]; HierarchyHint uses the hierarchical
// partitioning hint of [5] directly as the mechanism.
var (
	SN            Mechanism = mechanism.SN{}
	PSNM          Mechanism = mechanism.PSNM{}
	HierarchyHint Mechanism = mechanism.Hierarchy{}
	// RSwoosh is the traditional (exhaustive, merge-based) in-block ER
	// algorithm of Benjelloun et al. [1] — a non-progressive reference
	// mechanism.
	RSwoosh Mechanism = mechanism.RSwoosh{}
)

// Policy sets per-level window/termination/fraction parameters.
type Policy = estimate.Policy

// CiteSeerXPolicy and OLBooksPolicy are the §VI-A5 parameter sets.
var (
	CiteSeerXPolicy = estimate.CiteSeerXPolicy
	OLBooksPolicy   = estimate.OLBooksPolicy
)

// DupModel estimates per-block duplicate counts; train one with
// TrainDupModel or leave Options.DupModel nil for the analytic default.
type DupModel = estimate.DupModel

// TrainDupModel learns the §VI-A4 bucketed duplicate-probability model
// from a training dataset with ground truth.
func TrainDupModel(ds *Dataset, gt *GroundTruth, fams Families) DupModel {
	return estimate.Train(ds, gt, fams)
}

// ---- Scheduling ----

// SchedulerKind selects the tree scheduler.
type SchedulerKind = sched.Kind

// Tree schedulers: the paper's algorithm, the NoSplit ablation, and the
// LPT load-balancing baseline.
const (
	SchedulerOurs    = sched.Ours
	SchedulerNoSplit = sched.NoSplit
	SchedulerLPT     = sched.LPT
)

// ---- Pipeline ----

// Options configures the full two-job pipeline.
type Options = core.Options

// BasicOptions configures the Basic single-job baseline.
type BasicOptions = core.BasicOptions

// Host holds the settings both Options and BasicOptions embed that
// decide how a run uses the host machine — workers, transport, the
// trace, metrics, quality and live sinks, the memory budget and its
// spill directory — and never what it finds: Result bytes are the same
// whatever Host holds. Set its fields through the
// embedding (opts.Workers = 4) or as a whole
// (Options{..., Host: proger.Host{Trace: tr}}).
type Host = core.Host

// Result is a pipeline run's outcome: duplicates, timestamped events,
// and diagnostics.
type Result = core.Result

// CostUnits is the simulated resolution-cost unit (≈ one pair match).
type CostUnits = costmodel.Units

// Resolve runs the parallel progressive ER pipeline (two MapReduce
// jobs) on the dataset.
func Resolve(ds *Dataset, opts Options) (*Result, error) { return core.Resolve(ds, opts) }

// ResolveBasic runs the Basic baseline (§II-C).
func ResolveBasic(ds *Dataset, opts BasicOptions) (*Result, error) {
	return core.ResolveBasic(ds, opts)
}

// ExecutionMode is ignored (Host.Execution): every job runs one task
// graph, in which each reduce task waits for every map task. It
// remains, with its two values, only because the benchmark harness
// still sets it for its persons-barrier row; dropping that row drops
// the type, its values and Host.Execution.
type ExecutionMode = mapreduce.ExecutionMode

// Execution modes; both are ignored (see ExecutionMode).
const (
	ExecPipelined = mapreduce.ExecPipelined
	ExecBarrier   = mapreduce.ExecBarrier
)

// ---- Distributed execution ----

// TaskTransport selects how each job's task executions are placed
// (Host.Transport): nil / the in-process default runs everything in
// this process; a dist.Master leases every task to registered worker
// processes over net/rpc; a dist.Worker executes leases and follows
// the master's end-of-job broadcasts. Like every Host setting, every
// transport produces byte-identical results, traces, and quality
// telemetry — provided every process in the fleet runs with identical
// resolution-affecting options (everything outside Host).
type TaskTransport = mapreduce.TaskTransport

// ErrTaskLost is the sentinel a transport reports when a leased task's
// worker went silent past the lease TTL. The engine re-dispatches a
// lost task up to three times, and lease churn never shows up in
// traces or results.
var ErrTaskLost = mapreduce.ErrTaskLost

// Distributed-runtime telemetry keys, reported only through
// Host.Metrics (master keys on the master process, worker keys on
// each worker): workers registered, leases granted and expired, RPC
// traffic (bytes, calls, latency histograms), lease-wait latency, and
// shared-directory run-file bytes streamed.
const (
	CounterDistWorkersRegistered = mapreduce.CounterDistWorkersRegistered
	CounterDistLeasesGranted     = mapreduce.CounterDistLeasesGranted
	CounterDistLeasesExpired     = mapreduce.CounterDistLeasesExpired
	CounterDistRPCBytesIn        = mapreduce.CounterDistRPCBytesIn
	CounterDistRPCBytesOut       = mapreduce.CounterDistRPCBytesOut
	CounterDistRPCCalls          = mapreduce.CounterDistRPCCalls
	CounterDistRunBytesRead      = mapreduce.CounterDistRunBytesRead
	CounterDistRunBytesWritten   = mapreduce.CounterDistRunBytesWritten
	HistDistRPCClientMillis      = mapreduce.HistDistRPCClientMillis
	HistDistRPCServerMillis      = mapreduce.HistDistRPCServerMillis
	HistDistLeaseWaitMillis      = mapreduce.HistDistLeaseWaitMillis
)

// ---- Observability ----

// Tracer collects timeline spans from a pipeline run. Attach one via
// Host.Trace and export it afterwards with WriteChromeTrace — the JSON
// loads in chrome://tracing or Perfetto.
// Simulated-clock traces are deterministic: identical runs produce
// byte-identical JSON regardless of host concurrency.
type Tracer = obs.Tracer

// MetricsRegistry collects counters, gauges, and histograms from a
// pipeline run. Attach one via Host.Metrics and export it with
// WritePrometheus (text exposition format).
type MetricsRegistry = obs.Registry

// NewTracer creates an enabled span collector.
var NewTracer = obs.New

// NewMetricsRegistry creates an enabled metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// Memory-budget telemetry keys (set only when Host.MemBudget > 0):
// the high-water mark of tracked bytes, the cumulative bytes charged
// (the raw shuffle volume), and the spills the budget forced.
const (
	GaugeMemBudgetPeakBytes    = mapreduce.GaugeMemBudgetPeakBytes
	GaugeMemBudgetChargedBytes = mapreduce.GaugeMemBudgetChargedBytes
	CounterBudgetForcedSpills  = mapreduce.CounterBudgetForcedSpills
	CounterBudgetSpilledBytes  = mapreduce.CounterBudgetSpilledBytes
)

// QualityRecorder collects quality telemetry from a pipeline run: the
// schedule's per-block predictions and per-task plans plus Job 2's
// realized per-block resolutions. Attach one via Host.Quality and
// export the progressive-recall curve and calibration report
// afterwards with Export — deterministic across worker counts and
// transports, like Tracer.
type QualityRecorder = quality.Recorder

// NewQualityRecorder creates an enabled quality recorder.
var NewQualityRecorder = quality.NewRecorder

// LiveRun is the in-flight introspection hub: engines publish task
// states, execution counts, and streamed per-block
// resolutions into it at low, lock-free cost, and
// the status server reads racefree per-field-atomic snapshots back out.
// Attach one via Host.Live. Strictly write-only from the run's
// perspective: results and every post-run artifact are byte-identical
// with or without it.
type LiveRun = live.Run

// LiveEventLog is the structured JSON event log (log/slog) fed by a
// LiveRun: run/job lifecycle and task transitions. The deterministic field subset (everything
// except seq and wall_ms) is stable across worker counts and edge
// policies.
type LiveEventLog = live.EventLog

// ProgressSnapshot is one consistent-enough view of a run in flight:
// per-phase task states, streamed comparison/duplicate counts, the
// incremental recall estimate, and the remaining-cost ETA.
type ProgressSnapshot = live.ProgressSnapshot

// NewLiveRun creates a live introspection hub; log may be nil.
var NewLiveRun = live.NewRun

// NewLiveEventLog creates a structured event log writing JSON lines to w.
var NewLiveEventLog = live.NewEventLog

// NewRelayEventLog creates a relay event log for a distributed worker
// process: emitted lines buffer in memory (bounded by capacity; ≤0
// uses the default) and ship to the master with each heartbeat, where
// they merge into the master's -events file under the worker's proc
// identity.
var NewRelayEventLog = live.NewRelayEventLog

// FleetSnapshot is the master's point-in-time fleet table: per-worker
// liveness, lease ledger, and last telemetry self-report. Served on
// the status server's /fleet endpoint and summarized post-run by
// report.WriteRunSummary.
type FleetSnapshot = live.FleetSnapshot

// StatusServer is a running live status server (see ServeStatus).
type StatusServer = live.Server

// ServeStatus starts the HTTP status server for a live run: /healthz,
// /progress, /tasks, /membudget, /metrics (Prometheus), and
// /debug/pprof. Listen errors are returned synchronously; ":0" picks a
// free port (see Addr on the returned server).
var ServeStatus = live.Serve

// LiveProgressRenderer is the periodic single-line terminal progress
// renderer returned by StartLiveProgress.
type LiveProgressRenderer = live.ProgressRenderer

// StartLiveProgress starts the single-line terminal progress renderer
// for a live run; Stop it after the run finishes.
var StartLiveProgress = live.StartProgress

// Structured event names written to a LiveEventLog. Run lifecycle
// events are the caller's responsibility (emit run.start before
// Resolve and run.end after); everything else is emitted by the
// engines.
const (
	EventRunStart   = live.EventRunStart
	EventRunEnd     = live.EventRunEnd
	EventJobStart   = live.EventJobStart
	EventJobEnd     = live.EventJobEnd
	EventTaskStart  = live.EventTaskStart
	EventTaskDone   = live.EventTaskDone
	EventTaskFailed = live.EventTaskFailed
	// Distributed-runtime events, emitted by a dist.Master's lease
	// ledger into the same log.
	EventWorkerRegister = live.EventWorkerRegister
	EventLease          = live.EventLease
	EventLeaseExpire    = live.EventLeaseExpire
)

// EventKV builds one structured attribute for LiveEventLog.Emit.
var EventKV = live.KV

// ---- Evaluation ----

// Event is a timestamped duplicate discovery.
type Event = quality.Event

// Curve is duplicate recall as a step function of cost.
type Curve = quality.Curve

// GroundTruth records the true clustering of a synthetic dataset.
type GroundTruth = datagen.GroundTruth

// BuildCurve builds the recall-vs-cost curve from resolution events.
var BuildCurve = quality.BuildCurve

// Qty is the discrete sampling quality function of Eq. 1.
var Qty = quality.Qty

// Speedup compares how fast two curves reach a recall level.
var Speedup = quality.Speedup

// ---- Clustering ----

// PairMetrics is a pairs-level precision/recall/F1 report.
type PairMetrics = clustering.PairMetrics

// TransitiveClosure groups n entities into disjoint clusters given the
// identified duplicate pairs (the §II-A final clustering step; also
// available as Result.Clusters).
var TransitiveClosure = clustering.TransitiveClosure

// EvaluatePairs scores identified pairs against a ground-truth oracle.
var EvaluatePairs = clustering.EvaluatePairs

// ---- Synthetic workloads ----

// Workload reads the workload catalogue, where each generated workload
// of the evaluation (§VI-A) is written down once: it generates the
// workload name on about n entities from seed, with its ground truth,
// and returns the Options that resolve it — the workload's blocking
// families, matcher, mechanism, policy and, for publications and books,
// a duplicate model trained on a disjoint sample (§VI-A4) — on 10
// machines of two slots each under the paper's scheduler. The names are
// those `proger -generate` takes: publications, books, people (the
// paper's Table-I toy, whose size is fixed: n and seed are ignored),
// persons and persons-exact. Unknown names are an error.
func Workload(name string, n int, seed int64) (*Dataset, *GroundTruth, Options, error) {
	w, err := experiments.Generate(name, n, seed)
	if err != nil {
		return nil, nil, Options{}, err
	}
	w.Train(n, seed)
	return w.DS, w.GT, w.Options(10, sched.Ours), nil
}

// GeneratePersons builds the persons workload's dataset. It stays only
// because the benchmark harness (bench/workloads.go) calls it; ROADMAP
// item 18 removes that caller, and then this function. Use Workload.
func GeneratePersons(n int, seed int64) (*Dataset, *GroundTruth) {
	return datagen.PersonRecords(datagen.DefaultPeople(n, seed))
}

// CorrelationClustering is the CC-Pivot alternative to transitive
// closure ([22] in the paper): one false-positive pair cannot glue two
// large clusters together.
var CorrelationClustering = clustering.CorrelationClustering
