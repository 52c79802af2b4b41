package mapreduce

// The engine. Run executes one job's task bodies as a map phase, then a
// reduce phase (pipeline.go), and derives everything observable from
// phaseOutputs: one TaskResult per task, whoever ran it — this process,
// or a worker leased by a remote master (remote.go) — and one
// partitionStore per partition, the reduce input on every route
// (spillstore.go).

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"proger/internal/costmodel"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// Run executes one MapReduce job. Input records are split contiguously
// among map tasks. startAt is the global time at which the job is
// submitted (chain jobs by passing the previous job's End).
//
// Execution is deterministic: identical inputs and config produce an
// identical Result, including all timestamps, regardless of Workers.
func Run(cfg Config, input []KeyValue, startAt costmodel.Units) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Partition == nil {
		cfg.Partition = HashPartitioner
	}
	if cfg.Cost == (costmodel.Model{}) {
		cfg.Cost = costmodel.Default()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	tracing := cfg.Trace != nil
	splits := splitInput(input, cfg.NumMapTasks)

	// Live introspection: register the job's tasks and hand every
	// execution layer the publication handle. lj is nil when live
	// introspection is off — all its methods no-op — and nothing below
	// ever reads it back, so it cannot perturb the deterministic run.
	lj := cfg.Live.StartJob(cfg.Name, cfg.NumMapTasks, cfg.NumReduceTasks)

	// Task execution: one two-phase runner fills phaseOutputs whoever
	// runs the task bodies (this process, or workers leased by a remote
	// master), so everything below this point (the simulated schedule,
	// Result, spans, metrics, quality) is execution-independent by
	// construction.
	var (
		po  *phaseOutputs
		err error
	)
	if cfg.Transport != nil {
		po, err = runRemoteJob(&cfg, lj, workers, splits)
	} else {
		po = newPhaseOutputs(&cfg)
		err = runJobGraph(&cfg, workers, po, localBodies(&cfg, lj, splits, po))
	}
	if po != nil {
		// The stores hold host resources (spill files, budget accounts);
		// settle them even when a task errors out partway.
		defer func() {
			for _, st := range po.stores {
				st.Close()
			}
		}()
	}
	if err != nil {
		lj.End(err)
		return nil, err
	}
	mapRes, reduceRes := po.mapRes, po.reduceRes
	mapCosts, reduceCosts := taskCosts(mapRes), taskCosts(reduceRes)
	mapWall, reduceWall := po.mapWall, po.reduceWall

	jobStart := startAt
	mapPhaseStart := jobStart + cfg.Cost.JobSetup
	mapStarts, mapSlots, mapEnd := scheduleTasks(mapCosts, cfg.Cluster.Slots(), mapPhaseStart)

	reduceLens := make([]int, cfg.NumReduceTasks)
	for r, res := range reduceRes {
		reduceLens[r] = int(res.Counters[CounterReduceInRecords])
	}

	reduceStarts, reduceSlots, end := scheduleTasks(reduceCosts, cfg.Cluster.Slots(), mapEnd)

	// Publish quality observations: rebase each committed task's local
	// clocks onto the scheduled timeline and feed the recorder serially
	// in task-index order — deterministic regardless of Workers, because
	// qobs rode inside the task's result (exactly like output records
	// and counters).
	if q := cfg.Quality; q.Enabled() {
		for i, r := range reduceRes {
			for _, o := range r.Qobs {
				o.Task = i
				o.Start += reduceStarts[i]
				o.End += reduceStarts[i]
				q.ObserveBlock(o)
			}
		}
	}

	// Stamp global times and flatten output in (task, emission) order.
	var total int
	for _, r := range reduceRes {
		total += len(r.Out)
	}
	output := make([]TimedKV, 0, total)
	for r, res := range reduceRes {
		for _, kv := range res.Out {
			kv.Global = reduceStarts[r] + kv.Local
			output = append(output, kv)
		}
	}

	counters := Counters{}
	for _, r := range mapRes {
		counters.Merge(r.Counters)
	}
	for _, r := range reduceRes {
		counters.Merge(r.Counters)
	}
	res := &Result{
		Output:          output,
		Start:           jobStart,
		End:             end,
		MapEnd:          mapEnd,
		Counters:        counters,
		MapTaskCosts:    mapCosts,
		ReduceTaskCosts: reduceCosts,
		MapStarts:       mapStarts,
		ReduceStarts:    reduceStarts,
		MapSlots:        mapSlots,
		ReduceSlots:     reduceSlots,
	}

	if tracing {
		mapSpans := make([][]obs.Span, cfg.NumMapTasks)
		for i, r := range mapRes {
			mapSpans[i] = r.Spans
		}
		reduceSpans := make([][]obs.Span, cfg.NumReduceTasks)
		for i, r := range reduceRes {
			reduceSpans[i] = r.Spans
		}
		emitJobSpans(&cfg, res, splits, reduceLens,
			mapSpans, reduceSpans, mapWall, reduceWall)
	}
	if m := cfg.Metrics; m != nil {
		m.AddCounters(counters)
		if cfg.MemBudget != nil {
			// Budget-forced spill stats are pure memory-pressure artifacts
			// of the host, so they live in the metrics registry, not in the
			// deterministic Result.Counters.
			var forced, bytes int64
			for _, st := range po.stores {
				f, b := st.budgetStats()
				forced += f
				bytes += b
			}
			m.Counter(CounterBudgetForcedSpills).Add(forced)
			m.Counter(CounterBudgetSpilledBytes).Add(bytes)
		}
		h := m.Histogram(HistTaskCostUnits)
		for _, c := range mapCosts {
			h.Observe(float64(c))
		}
		for _, c := range reduceCosts {
			h.Observe(float64(c))
		}
	}
	lj.End(nil)
	return res, nil
}

// phaseOutputs is everything task execution produces, indexed by task:
// one TaskResult per task and one partitionStore per partition, whoever
// ran the task bodies. The job's tasks fill it (a remote worker
// copies the master's broadcast into it): the finalize half of Run
// derives the simulated schedule, Result, spans, metrics, and quality
// exports from it, which is what keeps every worker count and transport
// byte-equivalent.
type phaseOutputs struct {
	mapRes, reduceRes []TaskResult
	// stores holds partition r's reduce input, made before the map
	// phase runs: each committed local map task hands its runs over and
	// keeps no reference, so what stays resident is the store's call —
	// under a memory budget, the budget manager's. Run closes them.
	stores []*partitionStore
	// Host wall-clock measurements per stage; allocated (and recorded)
	// only when tracing. Wall data never feeds the simulated timeline.
	mapWall, reduceWall []wallSpan
}

func newPhaseOutputs(cfg *Config) *phaseOutputs {
	M, R := cfg.NumMapTasks, cfg.NumReduceTasks
	po := &phaseOutputs{
		mapRes:    make([]TaskResult, M),
		reduceRes: make([]TaskResult, R),
		stores:    make([]*partitionStore, R),
	}
	for r := range po.stores {
		po.stores[r] = newPartitionStore(cfg, r)
	}
	if cfg.Trace != nil {
		po.mapWall = make([]wallSpan, M)
		po.reduceWall = make([]wallSpan, R)
	}
	return po
}

// taskBodies is runJobGraph's body policy: how one execution of each
// phase's task runs. Local bodies call the deterministic task functions
// in this process; a remote master's bodies lease them to workers.
type taskBodies struct {
	mapTask, reduce func(i int) (TaskResult, error)
}

// trackTask is the one wrap point every task execution shares, in every
// mode and on both ends of a remote transport: it publishes the
// execution's live start/done/failed transition and, when wall is
// non-nil (tracing), records its host wall span. body also reports the
// record count the done transition carries.
func trackTask(lj *live.Job, p live.Phase, i int, wall []wallSpan,
	body func() (TaskResult, int, error)) (TaskResult, error) {
	lj.TaskStart(p, i)
	var w0 time.Time
	if wall != nil {
		w0 = time.Now()
	}
	res, records, err := body()
	if err != nil {
		lj.TaskFailed(p, i, err)
		return TaskResult{}, err
	}
	if wall != nil {
		wall[i] = wallSpan{w0, time.Since(w0)}
	}
	lj.TaskDone(p, i, float64(res.Cost), records)
	return res, nil
}

// localBodies runs every task body in this process: runMapTask, and
// runReduceTask over the partition's store, to which the map tasks
// handed their runs as they committed.
func localBodies(cfg *Config, lj *live.Job, splits [][]KeyValue, po *phaseOutputs) taskBodies {
	return taskBodies{
		mapTask: func(m int) (TaskResult, error) {
			return trackTask(lj, live.PhaseMap, m, po.mapWall, func() (TaskResult, int, error) {
				res, err := runMapTask(cfg, m, splits[m])
				return res, len(splits[m]), err
			})
		},
		reduce: func(i int) (TaskResult, error) {
			return trackTask(lj, live.PhaseReduce, i, po.reduceWall, func() (TaskResult, int, error) {
				res, err := runReduceTask(cfg, i, po.stores[i])
				return res, po.stores[i].Len(), err
			})
		},
	}
}

// TaskResult is one task execution's deterministic outcome, the one
// type every body returns — local or leased — and the per-task slice
// of phaseOutputs that crosses processes: a leased task returns it over
// RPC and the master's end-of-job broadcast carries one per task. Bulk data stays
// out of it: a local map task's runs go to the partition stores at
// commit, a leased one's stay in its file on the shared directory,
// which Parts locates. Host wall measurements stay outside.
type TaskResult struct {
	Cost     costmodel.Units
	Counters Counters
	Spans    []obs.Span
	// Worker is the master-attributed executor identity of a leased
	// task, stamped when the completion is accepted
	// (first-completion-wins) and carried into the end-of-job broadcast
	// so every process's live task table shows who ran what.
	// Observability-only: nothing derived from the result reads it.
	Worker int
	// Parts is a leased map task's run per partition: Parts[r] is
	// partition r's segment of its file.
	Parts []RunPart
	// Out and Qobs are a reduce task's output records and quality
	// observations.
	Out  []TimedKV
	Qobs []quality.BlockObs

	// runs is a local map task's sorted run per partition until the
	// task commits and hands them to the stores. It never crosses
	// processes.
	runs [][]KeyValue
}

// taskCosts is each task's cost, in task order.
func taskCosts(res []TaskResult) []costmodel.Units {
	costs := make([]costmodel.Units, len(res))
	for i, r := range res {
		costs[i] = r.Cost
	}
	return costs
}

// wallSpan is a host wall-clock measurement of one engine stage.
type wallSpan struct {
	start time.Time
	dur   time.Duration
}

// emitJobSpans publishes the job's timeline to the tracer: one span
// per map/reduce task, plus every task-local span recorded through
// TaskContext.Span — among them each reduce task's "shuffle" span, the
// simulated price of reading and merging its input — rebased from the
// task-local clock onto the global simulated timeline.
func emitJobSpans(cfg *Config, res *Result, splits [][]KeyValue, reduceLens []int,
	mapSpans, reduceSpans [][]obs.Span, mapWall, reduceWall []wallSpan) {
	tr := cfg.Trace
	pid := tr.PID(cfg.Name)
	rebase := func(spans []obs.Span, tid int, start costmodel.Units) {
		for _, s := range spans {
			s.PID, s.TID = pid, tid
			s.Start += start
			tr.Add(s)
		}
	}
	for i, cost := range res.MapTaskCosts {
		tr.Add(obs.Span{
			Cat: "map", Name: fmt.Sprintf("map %d", i),
			PID: pid, TID: res.MapSlots[i],
			Start: res.MapStarts[i], Dur: cost,
			WallStart: mapWall[i].start, WallDur: mapWall[i].dur,
			Args: []obs.Arg{obs.A("records", len(splits[i]))},
		})
		rebase(mapSpans[i], res.MapSlots[i], res.MapStarts[i])
	}
	for i, cost := range res.ReduceTaskCosts {
		tr.Add(obs.Span{
			Cat: "reduce", Name: fmt.Sprintf("reduce %d", i),
			PID: pid, TID: res.ReduceSlots[i],
			Start: res.ReduceStarts[i], Dur: cost,
			WallStart: reduceWall[i].start, WallDur: reduceWall[i].dur,
			Args: []obs.Arg{obs.A("records", reduceLens[i])},
		})
		rebase(reduceSpans[i], res.ReduceSlots[i], res.ReduceStarts[i])
	}
}

// splitInput divides input into n contiguous, near-equal splits.
func splitInput(input []KeyValue, n int) [][]KeyValue {
	splits := make([][]KeyValue, n)
	total := len(input)
	for i := 0; i < n; i++ {
		lo := total * i / n
		hi := total * (i + 1) / n
		splits[i] = input[lo:hi]
	}
	return splits
}

// scheduleTasks assigns tasks (in index order) to the earliest-free of
// `slots` slots, all free at phaseStart, returning each task's start
// time, the slot it ran on, and the phase end time. This mirrors
// Hadoop's slot scheduler with speculative execution disabled (§VI-A1).
func scheduleTasks(costs []costmodel.Units, slots int, phaseStart costmodel.Units) (starts []costmodel.Units, slotOf []int, phaseEnd costmodel.Units) {
	free := make([]costmodel.Units, slots)
	for i := range free {
		free[i] = phaseStart
	}
	starts = make([]costmodel.Units, len(costs))
	slotOf = make([]int, len(costs))
	phaseEnd = phaseStart
	for t, c := range costs {
		best := 0
		for s := 1; s < slots; s++ {
			if free[s] < free[best] {
				best = s
			}
		}
		starts[t] = free[best]
		slotOf[t] = best
		free[best] += c
		if free[best] > phaseEnd {
			phaseEnd = free[best]
		}
	}
	return starts, slotOf, phaseEnd
}

// mapStage is the working memory a map task borrows: where its records
// wait, in emission order, until the mapper is done and the size of every
// partition is known, and the scratch that turns them into sorted runs.
// Only the runs — allocated then, one per partition, each at exactly its
// length — outlive the task; the stage goes back to mapStages for the
// next task, so in steady state a map task allocates its output and
// nothing else.
type mapStage struct {
	kvs  []KeyValue // every emitted record; the value is the mapper's slice, not a copy
	part []int32    // part[i] is the partition of kvs[i]
	// sel lists the record indices partition by partition, emission order
	// within each; partition p's are sel[ends[p-1]:ends[p]].
	sel    []int32
	ends   []int
	sorter runSorter
}

// mapStages lends map tasks their stage. A stage is put back by the
// task that took it, after its runs are written, with every record slot
// it filled cleared: the pool keeps no key or value alive. A task that
// fails or panics keeps its stage; the collector takes it.
var mapStages = sync.Pool{New: func() any { return new(mapStage) }}

// mapEmitter stages map output in emission order, charging emission
// cost.
type mapEmitter struct {
	ctx       *TaskContext
	cfg       *Config
	partition Partitioner
	stage     *mapStage
}

// Emit implements Emitter.
func (e *mapEmitter) Emit(key string, value []byte) {
	e.ctx.Charge(e.cfg.Cost.EmitRecord)
	p := e.partition(key, e.cfg.NumReduceTasks)
	if p < 0 || p >= e.cfg.NumReduceTasks {
		panic(fmt.Sprintf("mapreduce: partitioner returned %d for %d reduce tasks", p, e.cfg.NumReduceTasks))
	}
	st := e.stage
	st.kvs, st.part = append(st.kvs, KeyValue{Key: key, Value: value}), append(st.part, int32(p))
}

// selectPartitions fills sel and ends from part: one counting pass, one
// placing pass.
func (st *mapStage) selectPartitions(numReduce int) {
	ends := append(st.ends[:0], make([]int, numReduce)...)
	for _, p := range st.part {
		ends[p]++
	}
	sum := 0
	for p, c := range ends {
		ends[p], sum = sum, sum+c // where partition p starts, until it is placed
	}
	sel := slices.Grow(st.sel[:0], len(st.part))[:len(st.part)]
	for i, p := range st.part {
		sel[ends[p]] = int32(i)
		ends[p]++
	}
	st.sel, st.ends = sel, ends
}

// release clears the staged records and puts the stage back.
func (st *mapStage) release() {
	clear(st.kvs)
	st.kvs, st.part = st.kvs[:0], st.part[:0]
	mapStages.Put(st)
}

// runMapTask runs map task index over split; its result carries the
// task's sorted run per partition.
func runMapTask(cfg *Config, index int, split []KeyValue) (TaskResult, error) {
	ctx := &TaskContext{
		Job:       cfg.Name,
		Type:      live.PhaseMap,
		Index:     index,
		NumReduce: cfg.NumReduceTasks,
		Cost:      cfg.Cost,
		counters:  Counters{},
		tracing:   cfg.Trace != nil,
	}
	ctx.Charge(cfg.Cost.TaskStartup)
	mapper := cfg.NewMapper()
	st := mapStages.Get().(*mapStage)
	emitter := &mapEmitter{ctx: ctx, cfg: cfg, partition: cfg.Partition, stage: st}
	if err := mapper.Setup(ctx); err != nil {
		return TaskResult{}, fmt.Errorf("mapreduce: %s map task %d setup: %w", cfg.Name, index, err)
	}
	for _, rec := range split {
		ctx.Charge(cfg.Cost.ReadRecord)
		if err := mapper.Map(ctx, rec, emitter); err != nil {
			return TaskResult{}, fmt.Errorf("mapreduce: %s map task %d: %w", cfg.Name, index, err)
		}
	}
	ctx.Inc(CounterMapInRecords, int64(len(split)))
	ctx.Inc(CounterMapOutRecords, int64(len(st.kvs)))
	// Map-side sort: leave every partition stably key-sorted so the
	// shuffle can merge runs instead of re-sorting concatenations. The
	// sort is real-machine work the simulation prices on the reduce side
	// (ShuffleSortCost), so no extra Charge happens here — moving the
	// work cannot alter the simulated timeline. Each run is an allocation
	// of its own, so that a store that spills one frees it.
	st.selectPartitions(cfg.NumReduceTasks)
	out := make([][]KeyValue, cfg.NumReduceTasks)
	lo := 0
	for p, hi := range st.ends {
		if sel := st.sel[lo:hi]; len(sel) > 0 {
			out[p] = make([]KeyValue, len(sel))
			st.sorter.sortInto(out[p], st.kvs, sel)
		}
		lo = hi
	}
	st.release()
	return TaskResult{Cost: ctx.Now(), Counters: ctx.counters, Spans: ctx.spans, runs: out}, nil
}

// reduceEmitter stamps each output record with the task-local clock.
type reduceEmitter struct {
	ctx *TaskContext
	out []TimedKV
}

// Emit implements Emitter.
func (e *reduceEmitter) Emit(key string, value []byte) {
	e.out = append(e.out, TimedKV{
		KeyValue: KeyValue{Key: key, Value: value},
		Local:    e.ctx.Now(),
		Task:     e.ctx.Index,
	})
}

// groupScratch lends reduce tasks the slice their key groups' values are
// gathered in: it grows to the task's largest group, which a task
// starting from nothing reaches by doubling, five times the final size in
// all. It is cleared group by group, so what comes back holds no value.
var groupScratch = sync.Pool{New: func() any { return new([][]byte) }}

// runReduceTask runs reduce task index over its partition's store.
func runReduceTask(cfg *Config, index int, in *partitionStore) (TaskResult, error) {
	ctx := &TaskContext{
		Job:       cfg.Name,
		Type:      live.PhaseReduce,
		Index:     index,
		NumReduce: cfg.NumReduceTasks,
		Cost:      cfg.Cost,
		counters:  Counters{},
		tracing:   cfg.Trace != nil,
		quality:   cfg.Quality != nil,
		lv:        cfg.Live,
	}
	n := in.Len()
	ctx.Charge(cfg.Cost.TaskStartup)
	// Framework shuffle cost: reading and merge-sorting this task's
	// input. (The real sort already happened in Run; here we only
	// account its simulated price.)
	shufStart := ctx.Now()
	ctx.Charge(cfg.Cost.ReadRecord * costmodel.Units(n))
	ctx.Charge(cfg.Cost.ShuffleSortCost(n))
	if ctx.Tracing() {
		ctx.Span("shuffle", fmt.Sprintf("shuffle r%d", index), shufStart, ctx.Now(),
			obs.A("records", n))
	}

	reducer := cfg.NewReducer()
	emitter := &reduceEmitter{ctx: ctx}
	if err := reducer.Setup(ctx); err != nil {
		return TaskResult{}, fmt.Errorf("mapreduce: %s reduce task %d setup: %w", cfg.Name, index, err)
	}
	// Stream the input and feed the reducer one key group at a time —
	// the group buffer, not the whole partition, bounds the resident
	// records when the input lives on disk.
	scratch := groupScratch.Get().(*[][]byte)
	values := *scratch // reused across groups (see Reducer contract)
	groups := 0
	if n > 0 {
		it, err := in.Iter()
		if err != nil {
			return TaskResult{}, fmt.Errorf("mapreduce: %s reduce task %d input: %w", cfg.Name, index, err)
		}
		defer it.Close()
		var curKey string
		have := false
		flush := func() error {
			if !have {
				return nil
			}
			if err := reducer.Reduce(ctx, curKey, values, emitter); err != nil {
				return fmt.Errorf("mapreduce: %s reduce task %d key %q: %w", cfg.Name, index, curKey, err)
			}
			groups++
			return nil
		}
		for {
			kv, ok, err := it.Next()
			if err != nil {
				return TaskResult{}, fmt.Errorf("mapreduce: %s reduce task %d input: %w", cfg.Name, index, err)
			}
			if !ok {
				break
			}
			if !have || kv.Key != curKey {
				if err := flush(); err != nil {
					return TaskResult{}, err
				}
				curKey, have = kv.Key, true
				clear(values)
				values = values[:0]
			}
			values = append(values, kv.Value)
		}
		if err := flush(); err != nil {
			return TaskResult{}, err
		}
	}
	clear(values)
	*scratch = values[:0]
	groupScratch.Put(scratch)
	if err := reducer.Cleanup(ctx, emitter); err != nil {
		return TaskResult{}, fmt.Errorf("mapreduce: %s reduce task %d cleanup: %w", cfg.Name, index, err)
	}
	ctx.Inc(CounterReduceInRecords, int64(n))
	ctx.Inc(CounterReduceInGroups, int64(groups))
	ctx.Inc(CounterReduceOutRecords, int64(len(emitter.out)))
	return TaskResult{Cost: ctx.Now(), Counters: ctx.counters, Spans: ctx.spans, Out: emitter.out, Qobs: ctx.qobs}, nil
}
