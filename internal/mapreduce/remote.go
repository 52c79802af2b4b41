package mapreduce

// Remote (multi-process) execution of one job; transport.go states the
// lockstep contract and why it keeps every byte. Every process can
// reconstruct the job's Config (mappers, reducers, side data) locally,
// so only task identity and result metadata cross the wire, never
// closures or input payloads. The shared-filesystem map files are the
// data plane: map task m writes one file, m<m>.run, its R pre-sorted
// partition runs back to back as segments, and reports each segment's
// place, record count and key bounds (RunPart); a reduce lease builds
// its partition's store of the M segments (mapFileInput) and merges
// them as it reads them, through the one merge every reduce input is
// read with, and must reach their record counts. A task returns the
// engine's one outcome type, TaskResult, inline over RPC: the same
// value a local body returns, holding exactly the per-task state
// phaseOutputs needs.

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"proger/internal/costmodel"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// RemoteTask is one task execution a master leases to a worker: its
// phase (live.PhaseMap or live.PhaseReduce) and index, a reduce task's
// runs — its partition's part of every map task's file, in map-index
// order; nil for a map task — and the master's two sink flags. A
// worker collects spans and block observations whenever the master
// keeps them, since it cannot know locally whether the master traces.
type RemoteTask struct {
	Phase   live.Phase
	Task    int
	Runs    []RunPart
	Tracing bool
	Quality bool
}

// RemoteJobResults is the master's end-of-job broadcast: every map and
// reduce task's committed result, indexed by task — the master's
// phaseOutputs results as they stand. Workers copy them into their own
// phaseOutputs and proceed exactly as if they had executed the job
// locally.
type RemoteJobResults struct {
	Map    []TaskResult
	Reduce []TaskResult
}

// partitionRuns is partition r's part of every committed map task's
// file, in map-index order: what a reduce lease reads.
func partitionRuns(mapRes []TaskResult, r int) []RunPart {
	runs := make([]RunPart, len(mapRes))
	for m, mr := range mapRes {
		runs[m] = mr.Parts[r]
	}
	return runs
}

// partitionLen is partition r's record count, the count a reduce
// lease's merge must reach.
func partitionLen(mapRes []TaskResult, r int) int {
	n := 0
	for _, mr := range mapRes {
		n += mr.Parts[r].N
	}
	return n
}

// RemoteJobDir returns job seq's shared directory under dataDir, which
// holds one file per map task. The transport creates it before the job's
// first lease and removes it when the job ends.
func RemoteJobDir(dataDir string, seq int) string {
	return filepath.Join(dataDir, fmt.Sprintf("job%d", seq))
}

func mapFileName(m int) string { return fmt.Sprintf("m%d.run", m) }

// RemoteRunner executes leased task bodies worker-side: the same
// deterministic runMapTask/runReduceTask functions the local engine
// calls, against the job Config this process reconstructed locally,
// with map files on the shared data dir as input/output. The transport
// calls Configure once placement is known, then RunTask per lease.
type RemoteRunner struct {
	cfg    *Config
	splits [][]KeyValue
	lj     *live.Job

	jobDir string // RemoteJobDir of the job; empty until Configure

	// workerID is this process's master-assigned identity (0 until
	// Configure), fed to the live task table rows this runner executes.
	// cRead/cWrite count shared-directory map-file bytes this process
	// streams — registry-only fleet telemetry (nil without metrics).
	workerID      int
	cRead, cWrite *obs.Counter

	// done tracks tasks this process executed via leases, so the
	// end-of-job live back-fill (publishRemaining) doesn't double-report
	// their transitions on the local snapshot hub.
	mu   sync.Mutex
	done map[remoteTaskKey]struct{}
}

type remoteTaskKey struct {
	phase live.Phase
	task  int
}

func newRemoteRunner(cfg *Config, splits [][]KeyValue, lj *live.Job) *RemoteRunner {
	return &RemoteRunner{cfg: cfg, splits: splits, lj: lj,
		cRead:  cfg.Metrics.Counter(CounterDistRunBytesRead),
		cWrite: cfg.Metrics.Counter(CounterDistRunBytesWritten),
		done:   map[remoteTaskKey]struct{}{}}
}

// Configure binds the runner to its placement: the shared data
// directory, the job's sequence number in the chain and this process's
// master-assigned worker identity.
func (rr *RemoteRunner) Configure(dataDir string, seq, workerID int) {
	rr.jobDir = RemoteJobDir(dataDir, seq)
	rr.workerID = workerID
}

// execConfig is the config a lease's body runs with: the master's sink
// flags are ORed with the local config's own sinks — a worker collects
// spans/qobs whenever anyone needs them — by installing throwaway sinks
// on a copy of the config (the task functions key collection off sink
// non-nilness; the copies' sinks are never exported, results ship back
// inside TaskResult instead).
func (rr *RemoteRunner) execConfig(t RemoteTask) *Config {
	c := *rr.cfg
	if t.Tracing && c.Trace == nil {
		c.Trace = obs.New()
	}
	if t.Quality && c.Quality == nil {
		c.Quality = quality.NewRecorder()
	}
	return &c
}

func (rr *RemoteRunner) markDone(p live.Phase, task int) {
	rr.mu.Lock()
	rr.done[remoteTaskKey{p, task}] = struct{}{}
	rr.mu.Unlock()
}

// publishRemaining back-fills the local live snapshot hub with the
// tasks this process did not execute, from the master's broadcast —
// worker attribution included — so a worker's status server converges to the complete job view.
func (rr *RemoteRunner) publishRemaining(p live.Phase, task int, cost costmodel.Units, records, worker int) {
	rr.mu.Lock()
	_, ran := rr.done[remoteTaskKey{p, task}]
	rr.mu.Unlock()
	if ran {
		return
	}
	rr.lj.TaskStart(p, task)
	rr.lj.TaskDone(p, task, float64(cost), records)
	rr.lj.TaskWorker(p, task, worker)
}

// RunTask executes one leased task body and returns its result.
// Duplicate executions (re-leases after a lost worker) are safe: task
// bodies are deterministic, so a map file's rename replaces identical
// bytes, and a reader that has the old file open keeps reading it.
func (rr *RemoteRunner) RunTask(t RemoteTask) (*TaskResult, error) {
	if rr.jobDir == "" {
		return nil, fmt.Errorf("mapreduce: remote runner not configured")
	}
	cfg := rr.execConfig(t)
	var body func() (TaskResult, int, error)
	switch t.Phase {
	case live.PhaseMap:
		if t.Task < 0 || t.Task >= len(rr.splits) {
			return nil, fmt.Errorf("mapreduce: map task %d outside %d splits", t.Task, len(rr.splits))
		}
		body = func() (TaskResult, int, error) { return rr.runMap(cfg, t.Task) }
	case live.PhaseReduce:
		if t.Task < 0 || t.Task >= cfg.NumReduceTasks {
			return nil, fmt.Errorf("mapreduce: reduce task %d outside %d partitions", t.Task, cfg.NumReduceTasks)
		}
		body = func() (TaskResult, int, error) { return rr.runReduce(cfg, t.Task, t.Runs) }
	default:
		return nil, fmt.Errorf("mapreduce: unknown remote phase %q", t.Phase)
	}
	res, err := trackTask(rr.lj, t.Phase, t.Task, nil, body)
	if err != nil {
		return nil, err
	}
	rr.lj.TaskWorker(t.Phase, t.Task, rr.workerID)
	rr.markDone(t.Phase, t.Task)
	return &res, nil
}

// runMap and runReduce are the worker-side task bodies; beside the
// result each reports the record count of its live done transition.
// A leased map task's result keeps only the Parts of its runs, which
// it has written to its file.
func (rr *RemoteRunner) runMap(cfg *Config, m int) (TaskResult, int, error) {
	res, err := runMapTask(cfg, m, rr.splits[m])
	if err != nil {
		return TaskResult{}, 0, err
	}
	if res.Parts, err = writeMapFile(rr.jobDir, m, res.runs, rr.cWrite); err != nil {
		return TaskResult{}, 0, err
	}
	res.runs = nil
	return res, len(rr.splits[m]), nil
}

// runReduce streams partition i straight from its segments of the M map
// files in the job's shared directory, which the master's job cleanup
// owns; the merge must reach the Σ N the lease's runs claim.
func (rr *RemoteRunner) runReduce(cfg *Config, i int, runs []RunPart) (TaskResult, int, error) {
	in := mapFileInput(cfg.Name, i, rr.jobDir, runs, rr.cRead)
	res, err := runReduceTask(cfg, i, in)
	return res, in.Len(), err
}

// writeMapFile writes map task m's runs, one per partition, back to
// back into its file in dir and returns where each lies. Every
// execution writes the whole file and renames it into place. c, when
// non-nil, counts the bytes written.
func writeMapFile(dir string, m int, out [][]KeyValue, c *obs.Counter) ([]RunPart, error) {
	parts := make([]RunPart, len(out))
	err := commitRunFile(dir, mapFileName(m), c, func(rf *runFile) error {
		for r, kvs := range out {
			var err error
			if parts[r], err = rf.appendRun(m, kvs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mapreduce: write %s: %w", mapFileName(m), err)
	}
	return parts, nil
}

// mapFileInput is partition r's store in a reduce lease: its runs are
// the partition's segments of the map files in dir, runs[m] being its
// part of map task m's file, and c, when non-nil, counts the bytes read
// off them. It has no budget account and owns no file, so it needs no
// Close.
func mapFileInput(job string, r int, dir string, runs []RunPart, c *obs.Counter) *partitionStore {
	st := &partitionStore{job: job, r: r, c: c}
	for m, p := range runs {
		st.total += p.N
		if p.N > 0 {
			st.runs = append(st.runs, &spillRun{sortedRun: sortedRun{m: m, path: filepath.Join(dir, mapFileName(m)), RunPart: p}})
		}
	}
	return st
}

// countingReader feeds a run-file byte counter from the raw stream. A
// nil counter no-ops, so the wrapper is always safe.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// runRemoteJob executes one job over a remote transport, filling
// phaseOutputs byte-identically to local execution.
func runRemoteJob(cfg *Config, lj *live.Job, workers int, splits [][]KeyValue) (*phaseOutputs, error) {
	runner := newRemoteRunner(cfg, splits, lj)
	job, err := cfg.Transport.BeginJob(runner)
	if err != nil {
		return nil, err
	}
	if job.Master() {
		return runRemoteMaster(cfg, lj, workers, splits, job)
	}
	return runRemoteWorker(cfg, splits, job, runner)
}

// runRemoteMaster runs the job's phases with RPC-dispatching bodies:
// the same runner — phase order and bounded concurrency — as local
// execution. The end-of-job broadcast is po's results as they stand.
func runRemoteMaster(cfg *Config, lj *live.Job, workers int, splits [][]KeyValue, rjob RemoteJob) (*phaseOutputs, error) {
	po := newPhaseOutputs(cfg)
	err := runJobGraph(cfg, workers, po, masterBodies(cfg, lj, splits, po, rjob))
	var results *RemoteJobResults
	if err == nil {
		results = &RemoteJobResults{Map: po.mapRes, Reduce: po.reduceRes}
	}
	// Broadcast results — or the terminal error — so the worker fleet's
	// lockstep drivers can proceed (or abort) too.
	if ferr := rjob.Finish(results, err); err == nil {
		err = ferr
	}
	return po, err
}

// masterBodies leases every map and reduce body to the worker fleet
// through rjob.RunTask. A reduce lease merges its own input; the master
// tells it where its partition's runs lie and how many records each
// holds.
func masterBodies(cfg *Config, lj *live.Job, splits [][]KeyValue, po *phaseOutputs, rjob RemoteJob) taskBodies {
	// A lost lease (worker died mid-task) is re-dispatched; it stays off
	// the simulated timeline.
	dispatch := func(p live.Phase, task, records int, wall []wallSpan, runs []RunPart) (TaskResult, error) {
		t := RemoteTask{Phase: p, Task: task, Runs: runs, Tracing: cfg.Trace != nil, Quality: cfg.Quality != nil}
		return trackTask(lj, p, task, wall, func() (TaskResult, int, error) {
			res, err := retryLost(func() (*TaskResult, error) {
				return rjob.RunTask(t)
			})
			if err != nil {
				return TaskResult{}, 0, err
			}
			lj.TaskWorker(p, task, res.Worker)
			return *res, records, nil
		})
	}
	return taskBodies{
		mapTask: func(m int) (TaskResult, error) {
			return dispatch(live.PhaseMap, m, len(splits[m]), po.mapWall, nil)
		},
		reduce: func(i int) (TaskResult, error) {
			return dispatch(live.PhaseReduce, i, partitionLen(po.mapRes, i), po.reduceWall, partitionRuns(po.mapRes, i))
		},
	}
}

// runRemoteWorker is the follower side: leases execute concurrently
// through the transport's pump loops (which call RemoteRunner.RunTask
// directly); here the driver just waits for the master's broadcast and
// copies its results into phaseOutputs unchanged, so the rest of Run,
// and the next job's schedule generation, proceeds identically to the
// master's.
func runRemoteWorker(cfg *Config, splits [][]KeyValue, rjob RemoteJob, runner *RemoteRunner) (*phaseOutputs, error) {
	jr, err := rjob.Wait()
	if err != nil {
		return nil, err
	}
	M, R := cfg.NumMapTasks, cfg.NumReduceTasks
	if len(jr.Map) != M || len(jr.Reduce) != R {
		return nil, fmt.Errorf("mapreduce: %s: master broadcast %d/%d task results, this process expects %d/%d — fleet configs diverged",
			cfg.Name, len(jr.Map), len(jr.Reduce), M, R)
	}
	for m, res := range jr.Map {
		if len(res.Parts) != R {
			return nil, fmt.Errorf("mapreduce: %s: master broadcast map task %d with %d partitions, this process expects %d — fleet configs diverged",
				cfg.Name, m, len(res.Parts), R)
		}
		runner.publishRemaining(live.PhaseMap, m, res.Cost, len(splits[m]), res.Worker)
	}
	for i, res := range jr.Reduce {
		runner.publishRemaining(live.PhaseReduce, i, res.Cost, partitionLen(jr.Map, i), res.Worker)
	}
	po := newPhaseOutputs(cfg)
	po.mapRes, po.reduceRes = jr.Map, jr.Reduce
	return po, nil
}
