// Package mapreduce implements a from-scratch, in-process MapReduce
// framework with the contract the paper's algorithms rely on:
//
//   - map tasks consume input splits and emit key-value pairs;
//   - a pluggable partition function routes each pair to a reduce task;
//   - each reduce task sorts its input by key, groups equal keys, and
//     invokes the reduce function once per group, in key order;
//   - tasks run on a simulated cluster of machines × slots-per-machine,
//     and every task accounts its work in deterministic cost units
//     (see internal/costmodel), producing a global timeline;
//   - reduce output records are timestamped, which is what makes
//     *progressive* result delivery observable (§III-B: "outputs the
//     results to a different file every α units of cost").
//
// The engine executes tasks concurrently (bounded worker pool) but all
// timing comes from the cost model, so results and timelines are
// bit-for-bit reproducible regardless of real scheduling.
package mapreduce

import (
	"fmt"

	"proger/internal/costmodel"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// KeyValue is the unit of data flowing through a job.
type KeyValue struct {
	Key   string
	Value []byte
}

// TimedKV is a reduce-output record stamped with when it was produced:
// Local is cost units since its reduce task started working; Global is
// cost units since the start of the whole run (job chain).
type TimedKV struct {
	KeyValue
	Local  costmodel.Units
	Global costmodel.Units
	Task   int // producing reduce task index
}

// Emitter receives the pairs emitted by map and reduce functions.
type Emitter interface {
	Emit(key string, value []byte)
}

// Mapper is the user map function plus optional per-task lifecycle.
// One Mapper instance is created per map task (via Config.NewMapper),
// mirroring Hadoop's task-scoped Mapper objects, so implementations may
// keep per-task state without locking.
type Mapper interface {
	// Setup runs once before the first Map call. Schedule generation in
	// the paper's second job happens here (§III-B).
	Setup(ctx *TaskContext) error
	// Map processes one input record.
	Map(ctx *TaskContext, rec KeyValue, emit Emitter) error
}

// Reducer is the user reduce function plus optional per-task lifecycle.
type Reducer interface {
	Setup(ctx *TaskContext) error
	// Reduce is called once per distinct key, with all values for that
	// key in emission order. The values slice is scratch owned by the
	// framework and reused for the next key group: implementations must
	// not retain the slice itself past the call. The []byte elements are
	// immutable, and that is a guarantee: nothing writes a value's bytes
	// once it is emitted — not the in-memory shuffle, a memory budget's
	// stores or a fleet's run files, each of which hands Reduce bytes of
	// its own — so implementations may keep them, and alias them for as
	// long as they like, as the entities of an entity.Decoder do. They
	// must not write them either.
	Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error
	Cleanup(ctx *TaskContext, emit Emitter) error
}

// MapperBase and ReducerBase provide no-op lifecycle methods so user
// types only implement what they need.
type MapperBase struct{}

// Setup implements Mapper.
func (MapperBase) Setup(*TaskContext) error { return nil }

// ValueChunks cuts a map task's emitted values from chunks the task's
// Mapper owns, instead of one allocation per value. That is safe because
// an Emit keeps the slice it is handed (it does not copy), values are
// read-only downstream, and every value lives until its job ends: the
// values of one task die together. (Under a memory budget each run's
// values are copied into an array of the run's own before a store
// charges them, so that spilling a run frees them.) Chunks grow
// geometrically from 1 KiB to 32 KiB, so a small task does not pay for
// a large chunk and every chunk is a small object, served from the
// per-processor caches (one larger is placed by the heap itself). A
// value's capacity is clipped to what was asked for, so appending to one
// value can never write into its neighbour. The zero value is ready to
// use.
type ValueChunks struct {
	chunk []byte
}

const (
	firstValueChunk = 1 << 10
	lastValueChunk  = 32 << 10
)

// Alloc returns an empty value of capacity n for the caller to append
// to.
func (c *ValueChunks) Alloc(n int) []byte {
	if n > lastValueChunk/4 {
		return make([]byte, 0, n) // a chunk of its own, leaving the current one be
	}
	if cap(c.chunk)-len(c.chunk) < n {
		c.chunk = make([]byte, 0, min(max(2*cap(c.chunk), firstValueChunk), lastValueChunk))
	}
	at := len(c.chunk)
	c.chunk = c.chunk[:at+n]
	return c.chunk[at : at : at+n]
}

// ReducerBase provides no-op lifecycle methods for Reducers.
type ReducerBase struct{}

// Setup implements Reducer.
func (ReducerBase) Setup(*TaskContext) error { return nil }

// Cleanup implements Reducer.
func (ReducerBase) Cleanup(*TaskContext, Emitter) error { return nil }

// Partitioner routes a key to one of numReduce reduce tasks.
type Partitioner func(key string, numReduce int) int

// HashPartitioner is the default hash-based partition function (FNV-1a),
// the behaviour of Hadoop's HashPartitioner.
func HashPartitioner(key string, numReduce int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(numReduce))
}

// ExecutionMode is ignored: the engine runs a job's map phase, then
// its reduce phase, so reduce task r waits for every map task and
// there is no scheduling policy left to choose. The type and its values
// remain only because the benchmark harness still sets
// Config.Execution (its persons-barrier row); they go once that row is
// dropped.
type ExecutionMode int

const (
	// ExecPipelined is ignored; see ExecutionMode.
	ExecPipelined ExecutionMode = iota
	// ExecBarrier is ignored; see ExecutionMode.
	ExecBarrier
)

// Cluster describes the simulated hardware: the paper runs at most two
// concurrent map and two concurrent reduce tasks per machine (§VI-A1).
type Cluster struct {
	Machines        int
	SlotsPerMachine int
}

// Slots returns the total number of concurrent task slots.
func (c Cluster) Slots() int { return c.Machines * c.SlotsPerMachine }

// Config specifies a job.
type Config struct {
	// Name labels the job in errors and counters.
	Name string
	// NewMapper and NewReducer create one task-scoped instance each.
	NewMapper  func() Mapper
	NewReducer func() Reducer
	// Partition routes map-output keys; HashPartitioner if nil.
	Partition Partitioner
	// NumMapTasks and NumReduceTasks size the job. The paper sets map
	// tasks = map slots and reduce tasks = reduce slots.
	NumMapTasks    int
	NumReduceTasks int
	// Cluster is the simulated hardware.
	Cluster Cluster
	// Cost is the cost model; costmodel.Default() if zero.
	Cost costmodel.Model
	// Workers bounds real concurrency of the in-process execution;
	// defaults to GOMAXPROCS. Purely a host-machine knob: it cannot
	// change results or simulated timing.
	Workers int
	// Execution is ignored (see ExecutionMode); it remains while the
	// benchmark harness sets it.
	Execution ExecutionMode
	// Transport selects where task bodies execute: in-process on the
	// channel pool (nil, the default) or leased to worker processes
	// through a TaskTransport (internal/dist). A host-machine knob like
	// Workers: every transport produces byte-identical Results, traces,
	// and quality exports. A transport is
	// incompatible with MemBudget (run files, not memory pressure, are
	// the distributed data plane).
	Transport TaskTransport
	// SpillDir receives the spill files MemBudget forces out;
	// os.TempDir()-based default.
	SpillDir string
	// MemBudget, when non-nil, is the process-wide memory budget
	// manager governing out-of-core execution: reduce inputs buffer in
	// budget-charged stores, and the manager forces the largest holders
	// to spill their runs to run files in SpillDir when the total
	// tracked bytes would exceed the budget. Purely a host-machine
	// knob, like Workers: what reaches disk depends on memory pressure,
	// but the record sequences — and therefore Result, traces, and
	// quality exports — are byte-identical to the in-memory run.
	MemBudget *membudget.Manager
	// Trace, when non-nil, receives a span per map/reduce task, per
	// shuffle merge, and per task-local span recorded through
	// TaskContext.Span — all placed on the simulated global timeline
	// (wall-clock data is carried alongside). Nil disables tracing at
	// zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, absorbs the job's counters and per-task
	// cost distribution at the end of the run. Nil disables metrics at
	// zero cost.
	Metrics *obs.Registry
	// Quality, when non-nil, receives the block realizations reduce
	// functions record through TaskContext.ObserveBlock, rebased onto
	// the global simulated timeline and fed in task-index order. Like
	// Trace and Metrics, a host-side sink that can never affect Result;
	// because observations travel inside each task's result, they are
	// immune to worker count and transport by construction. Nil disables at zero cost.
	Quality *quality.Recorder
	// Live, when non-nil, receives in-flight execution state: per-task
	// state transitions and per-block resolution realizations as they happen — the feed
	// behind the status server's /progress and /tasks endpoints.
	// Strictly write-only from the engine's side (nothing in the run
	// reads it back), so Result, traces, metrics, and quality exports
	// are byte-identical with or without it. Nil disables at zero cost.
	Live *live.Run
}

func (c *Config) validate() error {
	if c.NewMapper == nil {
		return fmt.Errorf("mapreduce: job %q: NewMapper is required", c.Name)
	}
	if c.NewReducer == nil {
		return fmt.Errorf("mapreduce: job %q: NewReducer is required", c.Name)
	}
	if c.NumMapTasks <= 0 {
		return fmt.Errorf("mapreduce: job %q: NumMapTasks must be positive", c.Name)
	}
	if c.NumReduceTasks <= 0 {
		return fmt.Errorf("mapreduce: job %q: NumReduceTasks must be positive", c.Name)
	}
	if c.Cluster.Machines <= 0 || c.Cluster.SlotsPerMachine <= 0 {
		return fmt.Errorf("mapreduce: job %q: cluster %+v invalid", c.Name, c.Cluster)
	}
	// Remote execution does not offer the memory budget: run files are
	// its data plane.
	if c.Transport != nil && c.MemBudget != nil {
		return fmt.Errorf("mapreduce: job %q: transport %q is incompatible with MemBudget",
			c.Name, c.Transport.TransportName())
	}
	return nil
}

// Result is the outcome of a job run.
type Result struct {
	// Output is every reduce-output record with its timestamps, in
	// (task, emission) order.
	Output []TimedKV
	// Start and End are the job's global start and end times in cost
	// units (End = when the last reduce task finished).
	Start, End costmodel.Units
	// MapEnd is when the map phase barrier completed.
	MapEnd costmodel.Units
	// Counters aggregates all task counters.
	Counters Counters
	// TaskCosts records per-task total cost, map tasks then reduce
	// tasks, for diagnostics and tests.
	MapTaskCosts    []costmodel.Units
	ReduceTaskCosts []costmodel.Units
	// MapStarts and ReduceStarts record each task's global start time.
	MapStarts    []costmodel.Units
	ReduceStarts []costmodel.Units
	// MapSlots and ReduceSlots record the simulated cluster slot each
	// task ran on (the trace's thread lane).
	MapSlots    []int
	ReduceSlots []int
}

// Segment is a contiguous α-interval of one reduce task's output — the
// "file" of the paper's incremental result delivery.
type Segment struct {
	Task       int
	Index      int             // segment number within the task
	Start, End costmodel.Units // local cost bounds [Start, End)
	Records    []TimedKV
}

// Segments splits one reduce task's output into α-cost-unit files, the
// way the paper's reduce function rolls its output file every α units.
// Results at time t are the union of all segments with End ≤ t.
func (r *Result) Segments(task int, alpha costmodel.Units) []Segment {
	if alpha <= 0 {
		panic("mapreduce: alpha must be positive")
	}
	var segs []Segment
	cur := Segment{Task: task, Index: 0, Start: 0, End: alpha}
	for _, kv := range r.Output {
		if kv.Task != task {
			continue
		}
		for kv.Local >= cur.End {
			segs = append(segs, cur)
			cur = Segment{Task: task, Index: cur.Index + 1, Start: cur.End, End: cur.End + alpha}
		}
		cur.Records = append(cur.Records, kv)
	}
	if len(cur.Records) > 0 {
		segs = append(segs, cur)
	}
	return segs
}
