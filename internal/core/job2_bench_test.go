package core

import (
	"sort"
	"testing"

	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/obs/live"
	"proger/internal/sched"
)

// discardEmitter swallows emissions so the benchmark isolates map-side
// work (key computation, list building, value assembly).
type discardEmitter struct{ n int }

func (e *discardEmitter) Emit(key string, value []byte) { e.n++ }

// benchShape is one benchmark dataset with its pipeline options.
type benchShape struct {
	name string
	make func() (*entity.Dataset, Options)
}

// benchShapes are the two ends of the Job-2 record path: publications
// (few long attributes, compare-bound reduce) and persons (many short
// records under Soundex and prefix families with exact rules, where the
// per-record and per-pair bookkeeping is the work — the shape of the
// wall-clock benchmark's persons-exact).
var benchShapes = []benchShape{
	{"publications", func() (*entity.Dataset, Options) {
		ds, gt := datagen.Publications(datagen.DefaultPublications(1500, 5))
		return ds, pubOptions(ds, gt, 5)
	}},
	{"persons", func() (*entity.Dataset, Options) {
		ds, _ := datagen.PersonRecords(datagen.DefaultPeople(6000, 5))
		idx := ds.Schema.Index
		return ds, Options{
			Families: blocking.Families{
				{Name: "S", Attr: idx("name"), PrefixLens: []int{1, 2, 4}, Index: 1, Kind: blocking.KeySoundex},
				{Name: "C", Attr: idx("city"), PrefixLens: []int{3, 5}, Index: 2},
				{Name: "T", Attr: idx("state"), PrefixLens: []int{2}, Index: 3},
			},
			Matcher: match.MustNew(0.6,
				match.Rule{Attr: idx("phone"), Weight: 0.6, Kind: match.ExactMatch},
				match.Rule{Attr: idx("state"), Weight: 0.4, Kind: match.ExactMatch},
			),
			Mechanism:       mechanism.SN{},
			Policy:          estimate.CiteSeerXPolicy(),
			Machines:        5,
			SlotsPerMachine: 2,
		}
	}},
}

// benchJob2Side builds the Job-2 side data (schedule included) for a
// full generated dataset, shared by the map- and reduce-side
// benchmarks. It also returns the job-1 input and the reduce-task
// count the schedule was generated for.
func benchJob2Side(b *testing.B, shape benchShape) (*job2Side, []mapreduce.KeyValue, int) {
	b.Helper()
	ds, opts := shape.make()
	return buildJob2Side(b, ds, opts, sched.CostPoints, sched.SplitBatch)
}

// buildJob2Side runs the pipeline up to schedule generation, with a
// k-point cost vector and split batch batch.
func buildJob2Side(b testing.TB, ds *entity.Dataset, opts Options, k, batch int) (*job2Side, []mapreduce.KeyValue, int) {
	b.Helper()
	opts = opts.withDefaults()
	cost := costmodel.Default()
	cluster := mapreduce.Cluster{Machines: opts.Machines, SlotsPerMachine: opts.SlotsPerMachine}
	stats, _, err := blocking.RunJob1(ds, opts.Families, cluster, cost, 0)
	if err != nil {
		b.Fatal(err)
	}
	trees, err := stats.BuildForests(opts.Families)
	if err != nil {
		b.Fatal(err)
	}
	trees = estimate.Prune(trees)
	est := estimate.NewEstimator(opts.Policy, cost, opts.DupModel, ds.Len())
	for _, t := range trees {
		est.EstimateTree(t)
	}
	r := cluster.Slots()
	cv := sched.AutoCostVector(trees, r, k)
	schedule, err := sched.Generate(trees, sched.Config{
		R: r, CostVector: cv, Weights: sched.LinearWeights(len(cv)), Estimator: est, Batch: batch,
	})
	if err != nil {
		b.Fatal(err)
	}
	side := &job2Side{
		schedule: schedule,
		families: opts.Families,
		matcher:  opts.Matcher,
		mech:     mechanism.SN{},
		policy:   opts.Policy,
	}
	return side, blocking.MakeJob1Input(ds), r
}

// BenchmarkJob2Map runs the Job-2 map function over a full
// dataset against a real generated schedule — the per-entity hot path
// of the resolve pipeline's second job.
func BenchmarkJob2Map(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			side, input, _ := benchJob2Side(b, shape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := &Job2Mapper{side: side}
				ctx := &mapreduce.TaskContext{Job: "bench", Type: live.PhaseMap, Cost: costmodel.Default()}
				emit := &discardEmitter{}
				for _, rec := range input {
					if err := m.Map(ctx, rec, emit); err != nil {
						b.Fatal(err)
					}
				}
				if emit.n == 0 {
					b.Fatal("mapper emitted nothing")
				}
			}
		})
	}
}

// partEmitter collects map output per reduce partition without
// copying values, exactly like the engine's shuffle.
type partEmitter struct {
	parts [][]mapreduce.KeyValue
}

func (e *partEmitter) Emit(key string, value []byte) {
	r := Job2Partitioner(key, len(e.parts))
	e.parts[r] = append(e.parts[r], mapreduce.KeyValue{Key: key, Value: value})
}

// BenchmarkJob2Reduce drives the Job-2 reduce function over real
// shuffled map output, whole partitions at a time — per block the
// payload lookup, per candidate pair the ownership test and the
// resolved-set probe, per tree one decode of every entity.
func BenchmarkJob2Reduce(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) { benchJob2Reduce(b, shape) })
	}
}

func benchJob2Reduce(b *testing.B, shape benchShape) {
	side, input, r := benchJob2Side(b, shape)

	// Map once, partition, and group — the reduce input the engine
	// would hand each reduce task.
	m := &Job2Mapper{side: side}
	mctx := &mapreduce.TaskContext{Job: "bench", Type: live.PhaseMap, Cost: costmodel.Default()}
	pe := &partEmitter{parts: make([][]mapreduce.KeyValue, r)}
	for _, rec := range input {
		if err := m.Map(mctx, rec, pe); err != nil {
			b.Fatal(err)
		}
	}
	type group struct {
		key    string
		values [][]byte
	}
	groups := make([][]group, r)
	total := 0
	for p, part := range pe.parts {
		sort.SliceStable(part, func(i, j int) bool { return part[i].Key < part[j].Key })
		for i := 0; i < len(part); {
			j := i
			for j < len(part) && part[j].Key == part[i].Key {
				j++
			}
			vals := make([][]byte, 0, j-i)
			for _, kv := range part[i:j] {
				vals = append(vals, kv.Value)
			}
			groups[p] = append(groups[p], group{key: part[i].Key, values: vals})
			total += j - i
			i = j
		}
	}
	if total == 0 {
		b.Fatal("no reduce input")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := range groups {
			red := &Job2Reducer{side: side}
			ctx := &mapreduce.TaskContext{Job: "bench", Type: live.PhaseReduce, Cost: costmodel.Default()}
			if err := red.Setup(ctx); err != nil {
				b.Fatal(err)
			}
			emit := &discardEmitter{}
			for _, g := range groups[p] {
				if err := red.Reduce(ctx, g.key, g.values, emit); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
