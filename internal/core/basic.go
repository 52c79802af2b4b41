package core

import (
	"fmt"

	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/dedup"
	"proger/internal/entity"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/obs/quality"
)

// This file implements the Basic approach of §II-C (Fig. 2): a single
// MapReduce job whose map function emits (blocking key ⊕ function ID,
// entity) per main blocking function, whose partition function is the
// default hash partitioner, and whose reduce function resolves each
// block with the mechanism M until the popcorn stopping condition [5]
// is met. The smallest-key redundancy-elimination rule of Kolb et
// al. [14] is incorporated, exactly as in §VI-B1.

type basicSide struct {
	families blocking.Families
	matcher  *match.Matcher
	mech     mechanism.Mechanism
	window   int
	// popcornThreshold < 0 disables the stopping condition ("Basic F").
	popcornThreshold float64
}

// BasicMapper emits one (famID|mainKey, annotated entity) pair per
// family; the annotation carries the main keys for the smallest-key
// responsibility rule.
type BasicMapper struct {
	mapreduce.MapperBase
	side *basicSide
	ann  blocking.Annotator
}

// Map implements mapreduce.Mapper.
func (m *BasicMapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	buf, keys, err := m.ann.Annotate(m.side.families, rec.Value)
	if err != nil {
		return err
	}
	ctx.Charge(ctx.Cost.ReadRecord * float64(len(m.side.families)))
	for _, key := range keys {
		emit.Emit(key, buf)
	}
	return nil
}

// BasicReducer resolves one main block per reduce call.
type BasicReducer struct {
	mapreduce.ReducerBase
	side *basicSide
	// One block's decoded members, reused from Reduce call to Reduce
	// call (mechanisms keep nothing of a block after ResolveBlock).
	view     blocking.AnnotatedView
	dec      entity.Decoder
	srcs     [][]byte // each value's entity part
	ents     []*entity.Entity
	sortKeys []string
	keys     []string // the members' main keys, len(families) each
	mainKeys [][]string
	// keyOf holds one string per main key the task has seen: the keys
	// of a block's members are compared, not kept.
	keyOf map[string]string
}

// Reduce implements mapreduce.Reducer.
func (r *BasicReducer) Reduce(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	start := ctx.Now()
	famIdx, blockKey, err := blocking.ParseJob1Key(key)
	if err != nil {
		return err
	}
	if famIdx < 0 || famIdx >= len(r.side.families) {
		return fmt.Errorf("core: basic key %q references family %d", key, famIdx)
	}
	if r.keyOf == nil {
		r.keyOf = map[string]string{}
	}
	srcs, keys, mainKeys := r.srcs[:0], r.keys[:0], r.mainKeys[:0]
	for _, v := range values {
		off, err := r.view.ScanKeys(v)
		if err != nil {
			return err
		}
		first := len(keys)
		for _, k := range r.view.MainKeys {
			s, ok := r.keyOf[string(k)]
			if !ok {
				s = string(k)
				r.keyOf[s] = s
			}
			keys = append(keys, s)
		}
		srcs, mainKeys = append(srcs, v[off:]), append(mainKeys, keys[first:len(keys):len(keys)])
	}
	r.dec.Reset(len(values))
	ents, sortKeys, err := r.dec.DecodeAll(r.ents[:0], r.sortKeys[:0], srcs, r.side.families[famIdx].Attr)
	if err != nil {
		return err
	}
	r.srcs, r.ents, r.sortKeys, r.keys, r.mainKeys = srcs, ents, sortKeys, keys, mainKeys

	var stop mechanism.StopFunc
	var observer func(bool)
	if r.side.popcornThreshold >= 0 {
		pc := &mechanism.Popcorn{Threshold: r.side.popcornThreshold}
		stop = pc.Stop
		observer = pc.Observe
	}
	env := &mechanism.Env{
		SortAttr: r.side.families[famIdx].Attr,
		SortKeys: sortKeys,
		Match:    r.side.matcher.Match,
		Decide: func(_ entity.Pair, i, j int) mechanism.Decision {
			if !dedup.SmallestKeyResponsible(mainKeys[i], mainKeys[j], famIdx, blockKey) {
				return mechanism.SkipNotResponsible
			}
			return mechanism.Resolve
		},
		Emit: func(p entity.Pair, isDup bool) {
			if isDup {
				emit.Emit("dup", dupValue(p))
			}
		},
		Charge:   ctx.Charge,
		Stop:     stop,
		Observer: observer,
		Cost:     ctx.Cost,
	}
	st := r.side.mech.ResolveBlock(env, ents, r.side.window)
	ctx.Inc(CounterBasicBlocksResolved, 1)
	ctx.Inc(CounterBasicCompared, int64(st.Compared))
	ctx.Inc(CounterBasicDups, int64(st.Dups))
	ctx.Inc(CounterBasicSkipped, int64(st.Skipped))
	if ctx.QualityOn() {
		// The baseline has no schedule and hence no SQ values; SQ -1
		// marks a realization with no prediction to join against.
		ctx.ObserveBlock(quality.BlockObs{
			ID:       key,
			SQ:       -1,
			Start:    start,
			End:      ctx.Now(),
			Compared: int64(st.Compared),
			Dups:     int64(st.Dups),
			Skipped:  int64(st.Skipped),
			Full:     r.side.popcornThreshold < 0,
		})
	}
	if ctx.Tracing() {
		ctx.Span("resolve", "block "+key, start, ctx.Now(),
			obs.A("size", len(ents)),
			obs.A("window", r.side.window),
			obs.A("compared", st.Compared),
			obs.A("dups", st.Dups),
			obs.A("skipped", st.Skipped))
	}
	return nil
}

// ResolveBasic runs the Basic baseline on the dataset.
func ResolveBasic(ds *entity.Dataset, opts BasicOptions) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	cluster := mapreduce.Cluster{Machines: opts.Machines, SlotsPerMachine: opts.SlotsPerMachine}
	side := &basicSide{
		families:         opts.Families,
		matcher:          opts.Matcher,
		mech:             opts.Mechanism,
		window:           opts.Window,
		popcornThreshold: opts.PopcornThreshold,
	}
	cfg := mapreduce.Config{
		Name:           "basic-progressive-er",
		NewMapper:      func() mapreduce.Mapper { return &BasicMapper{side: side} },
		NewReducer:     func() mapreduce.Reducer { return &BasicReducer{side: side} },
		NumMapTasks:    cluster.Slots(),
		NumReduceTasks: cluster.Slots(),
		Cluster:        cluster,
		Cost:           costmodel.Default(),
	}
	mgr := opts.configure(&cfg)
	jobRes, err := mapreduce.Run(cfg, blocking.MakeJob1Input(ds), 0)
	if err != nil {
		return nil, fmt.Errorf("core: basic job: %w", err)
	}
	return newResult(jobRes, opts.Metrics, mgr)
}
