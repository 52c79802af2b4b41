package main

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"proger"
	"proger/internal/blocking"
	"proger/internal/clustering"
	"proger/internal/core"
	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/extsort"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/sched"
	"proger/internal/textsim"
)

// Every layer is measured from outside: by reading what the library
// hands any caller (Result, counters, the wall side of the task spans,
// the metric registries, the fleet snapshot) and by timing calls into
// exported functions.

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- R: read from Result ----

func (h *harness) resultMetrics(out *runResult, res *proger.Result, timedWall float64) {
	c := res.Counters
	compared := float64(c.Get(core.CounterJob2Compared))
	skipped := float64(c.Get(core.CounterJob2Skipped))
	out.set("core.compared", single(compared))
	out.set("core.skipped", single(skipped))
	out.set("core.dups", single(float64(c.Get(core.CounterJob2Dups))))
	out.set("core.skip_ratio", single(ratio(skipped, skipped+compared)))
	out.set("core.comparisons_per_s", single(ratio(compared, timedWall)))
	out.set("mapreduce.map_out_records", single(float64(c.Get(mapreduce.CounterMapOutRecords))))
	out.set("mapreduce.reduce_in_records", single(float64(c.Get(mapreduce.CounterReduceInRecords))))
	out.set("sched.sim_total_cost", single(float64(res.TotalTime)))
	var max, sum float64
	for _, u := range res.Job2.ReduceTaskCosts {
		sum += float64(u)
		if float64(u) > max {
			max = float64(u)
		}
	}
	out.set("sched.reduce_cost_skew", single(ratio(max, sum/float64(len(res.Job2.ReduceTaskCosts)))))
}

// ---- T: the wall side of the traced operation's task spans ----

// phaseWall accumulates the task spans of one phase of one job.
type phaseWall struct {
	busy, max float64 // seconds
	cost      float64 // simulated units of the same tasks
	n         int
}

// jobWall is one job's task spans: per phase, and the window they span.
type jobWall struct {
	phase      map[string]*phaseWall
	first, end time.Time
}

// job2Name is the name core.Resolve gives its second job; Job 1's comes
// from blocking.Job1Config.
const job2Name = "job2-progressive-resolution"

func (h *harness) spanMetrics(out *runResult, tr *obs.Tracer, traced opOut) error {
	spans := tr.Spans()
	out.set("obs.spans", single(float64(len(spans))))
	jobs := map[int]*jobWall{}
	for _, s := range spans {
		// Task spans carry a wall extent; the task-local spans rebased
		// under them do not.
		if s.WallStart.IsZero() || (s.Cat != "map" && s.Cat != "shuffle" && s.Cat != "reduce") {
			continue
		}
		j := jobs[s.PID]
		if j == nil {
			j = &jobWall{phase: map[string]*phaseWall{}, first: s.WallStart}
			jobs[s.PID] = j
		}
		p := j.phase[s.Cat]
		if p == nil {
			p = &phaseWall{}
			j.phase[s.Cat] = p
		}
		d := s.WallDur.Seconds()
		p.busy += d
		p.cost += float64(s.Dur)
		p.n++
		if d > p.max {
			p.max = d
		}
		if s.WallStart.Before(j.first) {
			j.first = s.WallStart
		}
		if e := s.WallStart.Add(s.WallDur); e.After(j.end) {
			j.end = e
		}
	}
	job := func(name string) *jobWall {
		for pid, proc := range tr.Processes() {
			if proc == name {
				return jobs[pid]
			}
		}
		return nil
	}
	phase := func(j *jobWall, cat string) *phaseWall {
		if p := j.phase[cat]; p != nil {
			return p
		}
		return &phaseWall{}
	}
	j1 := job(blocking.Job1Config(nil, mapreduce.Cluster{}, costmodel.Model{}).Name)
	j2 := job(job2Name)
	if j1 == nil || j2 == nil {
		return errors.New("the trace holds no task spans under the two job names: the span taxonomy changed")
	}
	var busy float64
	for _, x := range []struct {
		prefix string
		j      *jobWall
	}{{"mapreduce.job1_", j1}, {"mapreduce.job2_", j2}} {
		m, r := phase(x.j, "map"), phase(x.j, "reduce")
		out.set(x.prefix+"map_busy_s", single(m.busy))
		out.set(x.prefix+"reduce_busy_s", single(r.busy))
		out.set(x.prefix+"shuffle_span_s", single(phase(x.j, "shuffle").busy))
		out.set(x.prefix+"wall_s", single(x.j.end.Sub(x.j.first).Seconds()))
		out.set(x.prefix+"map_ns_per_cost_unit", single(ratio(m.busy*1e9, m.cost)))
		out.set(x.prefix+"reduce_ns_per_cost_unit", single(ratio(r.busy*1e9, r.cost)))
		busy += m.busy + r.busy
	}
	out.set(lBetweenJobs, single(j2.first.Sub(j1.end).Seconds()))
	r2 := phase(j2, "reduce")
	out.set("mapreduce.job2_reduce_max_task_s", single(r2.max))
	out.set("mapreduce.job2_reduce_wall_skew", single(ratio(r2.max, ratio(r2.busy, float64(r2.n)))))
	out.set(lHostParallelism, single(ratio(busy, traced.wall)))
	out.set("core.reduce_ns_per_comparison", single(ratio(r2.busy*1e9, out.Metrics["core.compared"].Value)))
	return nil
}

// ---- T: the registries and the fleet snapshot ----

func (h *harness) registryMetrics(out *runResult, hk hooks, traced opOut, refWall float64) {
	const mib = 1 << 20
	reg := hk.metrics
	out.set(lForcedSpills, single(float64(reg.Counter(proger.CounterBudgetForcedSpills).Value())))
	out.set("membudget.spilled_mb", single(float64(reg.Counter(proger.CounterBudgetSpilledBytes).Value())/mib))
	out.set("membudget.peak_tracked_mb", single(reg.Gauge(proger.GaugeMemBudgetPeakBytes).Value()/mib))
	out.set("membudget.charged_mb", single(reg.Gauge(proger.GaugeMemBudgetChargedBytes).Value()/mib))
	if hk.masterReg == nil {
		return
	}
	m, w := hk.masterReg, hk.workerReg
	out.set("dist.rpc_calls", single(float64(m.Counter(proger.CounterDistRPCCalls).Value())))
	out.set("dist.rpc_mb", single(float64(m.Counter(proger.CounterDistRPCBytesIn).Value()+m.Counter(proger.CounterDistRPCBytesOut).Value())/mib))
	out.set(lLeasesGranted, single(float64(m.Counter(proger.CounterDistLeasesGranted).Value())))
	out.set(lLeasesExpired, single(float64(m.Counter(proger.CounterDistLeasesExpired).Value())))
	out.set("dist.runfile_mb_written", single(float64(w.Counter(proger.CounterDistRunBytesWritten).Value())/mib))
	out.set("dist.runfile_mb_read", single(float64(w.Counter(proger.CounterDistRunBytesRead).Value())/mib))
	for _, hv := range w.Snapshot().Histograms {
		switch hv.Name {
		case proger.HistDistRPCClientMillis:
			out.set("dist.rpc_client_ms_p50", single(hv.Quantile(0.5)))
			out.set("dist.rpc_client_ms_p99", single(hv.Quantile(0.99)))
		case proger.HistDistLeaseWaitMillis:
			out.set("dist.lease_wait_ms_p50", single(hv.Quantile(0.5)))
			out.set("dist.lease_wait_ms_p99", single(hv.Quantile(0.99)))
		}
	}
	var busyMs, idleMs float64
	for _, fw := range traced.fleet.Workers {
		if fw.Telemetry != nil {
			busyMs += float64(fw.Telemetry.BusyMillis)
			idleMs += float64(fw.Telemetry.IdleMillis)
		}
	}
	out.set("dist.worker_busy_share", single(ratio(busyMs, busyMs+idleMs)))
	out.set(lFleetEfficiency, single(ratio(busyMs/1000, refWall)))
}

// ---- S: the staged pass ----

// stagedPass re-enacts the exported first half of core.Resolve — Job-1
// input, Job 1, statistics, forests, estimation, schedule generation —
// with a timer around each call. It must be kept in step with
// core.Resolve (bench/README.md, "The staged pass").
func (h *harness) stagedPass(out *runResult) error {
	in, opts := h.in, h.in.opts
	cost := costmodel.Default()
	cluster := mapreduce.Cluster{Machines: opts.Machines, SlotsPerMachine: opts.SlotsPerMachine}
	model := opts.DupModel
	if model == nil {
		model = estimate.DefaultModel{}
	}
	timer := time.Now()
	lap := func(name string) {
		now := time.Now()
		out.set(name, single(now.Sub(timer).Seconds()))
		timer = now
	}

	input := blocking.MakeJob1Input(in.ds)
	lap("blocking.job1_input_s")

	cfg := blocking.Job1Config(opts.Families, cluster, cost)
	var job1 *mapreduce.Result
	var err error
	switch h.wl.Variant {
	case dist2:
		job1, err = h.stagedJob1Fleet(cfg, input, &timer)
	case spill:
		dir, derr := h.freshDir()
		if derr != nil {
			return derr
		}
		defer os.RemoveAll(dir)
		cfg.MemBudget, cfg.SpillDir = membudget.New(h.budget), dir
		timer = time.Now()
		job1, err = mapreduce.Run(cfg, input, 0)
	case barrier:
		cfg.Execution = mapreduce.ExecBarrier
		fallthrough
	default:
		job1, err = mapreduce.Run(cfg, input, 0)
	}
	if err != nil {
		return err
	}
	lap(lStagedJob1Wall)

	stats, err := blocking.ParseJob1Output(job1)
	if err != nil {
		return err
	}
	lap("blocking.stats_parse_s")
	out.set("blocking.blocks", single(float64(len(stats.Blocks))))

	trees, err := stats.BuildForests(opts.Families)
	if err != nil {
		return err
	}
	trees = estimate.Prune(trees)
	lap("blocking.forest_build_s")
	out.set("blocking.trees", single(float64(len(trees))))

	est := estimate.NewEstimator(opts.Policy, cost, model, in.ds.Len())
	for _, t := range trees {
		est.EstimateTree(t)
	}
	lap("estimate.estimate_s")

	r := cluster.Slots()
	cv := sched.AutoCostVector(trees, r, 3)
	schedule, err := sched.Generate(trees, sched.Config{
		R: r, CostVector: cv, Weights: sched.LinearWeights(len(cv)),
		Batch: 4, Estimator: est, Kind: opts.Scheduler,
	})
	if err != nil {
		return err
	}
	lap("sched.generate_s")
	out.set("sched.blocks_scheduled", single(float64(schedule.NumBlocks())))
	return nil
}

// stagedJob1Fleet runs Job 1 alone through a fresh fleet, every
// process-equivalent driving the same job as Resolve would. The timer
// is reset once the fleet is up, as an operation's window is.
func (h *harness) stagedJob1Fleet(cfg mapreduce.Config, input []mapreduce.KeyValue, timer *time.Time) (*mapreduce.Result, error) {
	dir, err := h.freshDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fl, err := startFleet(dir, h.fleetN, nil, nil)
	if err != nil {
		return nil, err
	}
	var res *mapreduce.Result
	*timer = time.Now()
	err = fl.run(func(t proger.TaskTransport, proc int) error {
		c := cfg
		c.Transport = t
		r, err := mapreduce.Run(c, input, 0)
		if proc == 0 {
			res = r
		}
		return err
	})
	return res, err
}

// ---- K: the kernel pass ----

// Kernel sample sizes, fixed so that the numbers compare across commits.
const (
	entitySample  = 10000
	pairSample    = 2000
	blockSample   = 50
	runFileBytes  = 64 << 20
	kernelMinTime = 50 * time.Millisecond
)

// perCall times fn, which does n calls of a kernel, repeating it until
// kernelMinTime has passed, and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	reps, start := 0, time.Now()
	for reps == 0 || time.Since(start) < kernelMinTime {
		fn()
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*n)
}

type identityMapper struct{ mapreduce.MapperBase }

type identityReducer struct{ mapreduce.ReducerBase }

func (identityMapper) Map(_ *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	emit.Emit(rec.Key, rec.Value)
	return nil
}

func (identityReducer) Reduce(_ *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	for _, v := range values {
		emit.Emit(key, v)
	}
	return nil
}

func (h *harness) kernelPass(out *runResult, seed int64, res *proger.Result) error {
	in := h.in
	rng := rand.New(rand.NewSource(seed))
	ents := in.ds.Entities

	// entity: the shuffle value codec.
	sampled := ents
	if len(ents) > entitySample {
		sampled = make([]*entity.Entity, entitySample)
		for i, j := range rng.Perm(len(ents))[:entitySample] {
			sampled[i] = ents[j]
		}
	}
	encoded := make([][]byte, len(sampled))
	var bytes int
	for i, e := range sampled {
		encoded[i] = entity.EncodeBinary(nil, e)
		bytes += len(encoded[i])
	}
	var buf []byte
	out.set("entity.encode_ns_per_entity", single(perCall(len(sampled), func() {
		for _, e := range sampled {
			buf = entity.EncodeBinary(buf[:0], e)
		}
	})))
	var decodeErr error
	out.set("entity.decode_ns_per_entity", single(perCall(len(sampled), func() {
		for _, b := range encoded {
			if _, _, err := entity.DecodeBinary(b); err != nil {
				decodeErr = err
			}
		}
	})))
	if decodeErr != nil {
		return decodeErr
	}
	out.set("entity.encoded_bytes_per_entity", single(ratio(float64(bytes), float64(len(sampled)))))

	// match, textsim: the two uses a threshold early-exit treats
	// differently — true duplicates, and the near misses a sorted
	// window actually presents.
	m := in.opts.Matcher
	dupPairs := in.gt.DupPairs()
	rng.Shuffle(len(dupPairs), func(i, j int) { dupPairs[i], dupPairs[j] = dupPairs[j], dupPairs[i] })
	if len(dupPairs) > pairSample {
		dupPairs = dupPairs[:pairSample]
	}
	sortAttr := in.opts.Families[0].Attr
	sorted := append([]*entity.Entity(nil), ents...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := strings.ToLower(sorted[i].Attr(sortAttr)), strings.ToLower(sorted[j].Attr(sortAttr))
		if a != b {
			return a < b
		}
		return sorted[i].ID < sorted[j].ID
	})
	var nonDups []entity.Pair
	for _, i := range rng.Perm(len(sorted) - 1) {
		if p := entity.MakePair(sorted[i].ID, sorted[i+1].ID); !in.gt.IsDup(p) {
			if nonDups = append(nonDups, p); len(nonDups) == pairSample {
				break
			}
		}
	}
	matchAll := func(pairs []entity.Pair) func() {
		return func() {
			for _, p := range pairs {
				m.Match(in.ds.Get(p.Lo), in.ds.Get(p.Hi))
			}
		}
	}
	out.set("match.ns_per_pair_dup", single(perCall(len(dupPairs), matchAll(dupPairs))))
	out.set("match.ns_per_pair_nondup", single(perCall(len(nonDups), matchAll(nonDups))))
	var editArgs [][2]string
	for _, r := range m.Rules {
		if r.Kind != match.EditDistance {
			continue
		}
		for _, p := range nonDups {
			a, b := in.ds.Get(p.Lo).Attr(r.Attr), in.ds.Get(p.Hi).Attr(r.Attr)
			if r.MaxChars > 0 {
				a, b = a[:min(len(a), r.MaxChars)], b[:min(len(b), r.MaxChars)]
			}
			editArgs = append(editArgs, [2]string{a, b})
		}
	}
	out.set("textsim.edit_ns_per_call", single(perCall(len(editArgs), func() {
		for _, ab := range editArgs {
			textsim.Levenshtein(ab[0], ab[1])
		}
	})))

	// mechanism: sort and window enumeration without the kernel, on the
	// largest leaf blocks of the dominating family.
	fam := in.opts.Families[0]
	groups := map[string][]*entity.Entity{}
	for _, e := range ents {
		k := fam.Key(e, fam.Levels())
		groups[k] = append(groups[k], e)
	}
	blocks := make([][]*entity.Entity, 0, len(groups))
	for _, g := range groups {
		blocks = append(blocks, g)
	}
	sort.Slice(blocks, func(i, j int) bool {
		if len(blocks[i]) != len(blocks[j]) {
			return len(blocks[i]) > len(blocks[j])
		}
		return blocks[i][0].ID < blocks[j][0].ID
	})
	if len(blocks) > blockSample {
		blocks = blocks[:blockSample]
	}
	env := &mechanism.Env{
		SortAttr: fam.Attr,
		Match:    func(a, b *entity.Entity) bool { return false },
		Emit:     func(entity.Pair, bool) {},
		Charge:   func(costmodel.Units) {},
		Cost:     costmodel.Default(),
	}
	window := in.opts.Policy.WindowLeaf
	var pairs int
	for _, b := range blocks {
		pairs += in.opts.Mechanism.ResolveBlock(env, b, window).Compared
	}
	out.set("mechanism.ns_per_pair_nullmatch", single(perCall(pairs, func() {
		for _, b := range blocks {
			in.opts.Mechanism.ResolveBlock(env, b, window)
		}
	})))

	// mapreduce: the engine tax.
	input := blocking.MakeJob1Input(in.ds)
	cluster := mapreduce.Cluster{Machines: in.opts.Machines, SlotsPerMachine: in.opts.SlotsPerMachine}
	idCfg := mapreduce.Config{
		Name:           "identity",
		NewMapper:      func() mapreduce.Mapper { return identityMapper{} },
		NewReducer:     func() mapreduce.Reducer { return identityReducer{} },
		NumMapTasks:    cluster.Slots(),
		NumReduceTasks: cluster.Slots(),
		Cluster:        cluster,
	}
	var runErr error
	nsPerRecord := perCall(len(input), func() {
		if _, err := mapreduce.Run(idCfg, input, 0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	out.set("mapreduce.identity_records_per_s", single(ratio(1e9, nsPerRecord)))

	// extsort: the run-file codec over the workload's own records.
	if err := h.runFilePass(out, input); err != nil {
		return err
	}

	// clustering: the final transitive closure.
	out.set("clustering.closure_s", single(perCall(1, func() {
		clustering.TransitiveClosure(in.ds.Len(), res.Duplicates)
	})/1e9))
	return nil
}

// runFilePass writes runFileBytes of the workload's records through
// extsort.RunWriter to a file, and reads them back.
func (h *harness) runFilePass(out *runResult, input []mapreduce.KeyValue) error {
	path := filepath.Join(h.workDir, "kernel.run")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	rw := extsort.NewRunWriter(bw)
	var raw, records int
	start := time.Now()
	for raw < runFileBytes {
		for _, kv := range input {
			if err := rw.WriteRecord(uint64(records), kv.Key, kv.Value); err != nil {
				return err
			}
			raw += len(kv.Key) + len(kv.Value)
			records++
		}
	}
	if err := rw.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	writeSeconds := time.Since(start).Seconds()
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rr := extsort.NewRunReader(bufio.NewReaderSize(f, 1<<16))
	start = time.Now()
	read := 0
	for {
		_, _, _, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		read++
	}
	readSeconds := time.Since(start).Seconds()
	if read != records {
		return errors.New("run file returned a different number of records than were written")
	}
	out.set("extsort.run_write_mb_s", single(ratio(float64(raw)/1e6, writeSeconds)))
	out.set("extsort.run_read_mb_s", single(ratio(float64(raw)/1e6, readSeconds)))
	out.set("extsort.compress_ratio", single(ratio(float64(raw), float64(size))))
	return nil
}
