package blocking

import (
	"fmt"
	"strconv"

	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/mapreduce"
)

// This file implements the paper's first MapReduce job (§III-B):
// progressive blocking plus statistics gathering. The map phase
// annotates each entity with its main blocking keys and routes one copy
// per family to the reduce task owning that family's main block. Each
// reduce call sees one main block, builds its blocking tree by applying
// the family's sub-blocking functions, computes per-block sizes, child
// keys, and uncovered-pair counts, and emits one BlockStat per block.

// Job1KeyOf builds the map-output key for a (family, main key) block.
// The family index is prefixed so blocks of different families with the
// same key value are never grouped together (the paper's footnote 3).
func Job1KeyOf(famIdx int, mainKey string) string {
	return strconv.Itoa(famIdx) + "|" + mainKey
}

// ParseJob1Key inverts Job1KeyOf.
func ParseJob1Key(key string) (famIdx int, mainKey string, err error) {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			famIdx, err = strconv.Atoi(key[:i])
			return famIdx, key[i+1:], err
		}
	}
	return 0, "", fmt.Errorf("blocking: malformed job-1 key %q", key)
}

// Job1Mapper annotates entities and emits one (block key, annotated
// entity) pair per family.
type Job1Mapper struct {
	mapreduce.MapperBase
	Families Families
	// dec holds the one entity Map is looking at: nothing it derives
	// from an entity outlives the call.
	dec entity.Decoder
}

// Map implements mapreduce.Mapper.
func (m *Job1Mapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	m.dec.Reset(1)
	e, _, err := m.dec.Decode(rec.Value)
	if err != nil {
		return err
	}
	ann := Annotate(m.Families, e)
	// Key computation cost: one prefix extraction per family.
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(m.Families)))
	buf := EncodeAnnotated(nil, ann)
	for famIdx := range m.Families {
		emit.Emit(Job1KeyOf(famIdx, ann.MainKeys[famIdx]), buf)
	}
	ctx.Inc(CounterJob1Entities, 1)
	return nil
}

// Job1Reducer builds one blocking tree per main block and emits its
// statistics.
type Job1Reducer struct {
	mapreduce.ReducerBase
	Families Families
	// One main block's decoded members, reused from Reduce call to
	// Reduce call: a tree keeps structure and sizes, never entities.
	dec      AnnotatedDecoder
	ents     []*entity.Entity
	mainKeys [][]string
}

// Reduce implements mapreduce.Reducer.
func (r *Job1Reducer) Reduce(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	famIdx, mainKey, err := ParseJob1Key(key)
	if err != nil {
		return err
	}
	if famIdx < 0 || famIdx >= len(r.Families) {
		return fmt.Errorf("blocking: job-1 key %q references family %d of %d", key, famIdx, len(r.Families))
	}
	fam := r.Families[famIdx]
	r.dec.Reset(len(values))
	ents, mainKeys := r.ents[:0], r.mainKeys[:0]
	for _, v := range values {
		e, keys, _, err := r.dec.Decode(v)
		if err != nil {
			return err
		}
		ents, mainKeys = append(ents, e), append(mainKeys, keys)
	}
	r.ents, r.mainKeys = ents, mainKeys
	// Tree construction: one key computation per entity per sub-level.
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(ents)*(fam.Levels()-1)))
	tree := BuildTree(fam, famIdx, mainKey, ents)
	// Uncovered-pair accounting: inclusion-exclusion over the
	// dominating families, one hash-group pass per subset per level.
	if famIdx > 0 {
		subsets := (1 << famIdx) - 1
		ctx.Charge(ctx.Cost.SkipPair * costmodel.Units(len(ents)*subsets*fam.Levels()))
	}
	ComputeUncov(fam, tree, ents, mainKeys)
	for _, s := range StatsFromTree(tree) {
		emit.Emit(s.ID.String(), EncodeStat(nil, s))
		ctx.Inc(CounterJob1Blocks, 1)
	}
	ctx.Inc(CounterJob1Trees, 1)
	return nil
}

// MakeJob1Input turns a dataset into the job's input records.
func MakeJob1Input(ds *entity.Dataset) []mapreduce.KeyValue {
	in := make([]mapreduce.KeyValue, ds.Len())
	for i, e := range ds.Entities {
		in[i] = mapreduce.KeyValue{
			Key:   strconv.Itoa(i),
			Value: entity.EncodeBinary(nil, e),
		}
	}
	return in
}

// ParseJob1Output decodes the job's reduce output into a Stats index.
func ParseJob1Output(res *mapreduce.Result) (*Stats, error) {
	list := make([]*BlockStat, 0, len(res.Output))
	for _, kv := range res.Output {
		s, _, err := DecodeStat(kv.Value)
		if err != nil {
			return nil, err
		}
		list = append(list, s)
	}
	return NewStats(list), nil
}

// Job1Config assembles the mapreduce.Config for the first job.
func Job1Config(fams Families, cluster mapreduce.Cluster, cost costmodel.Model) mapreduce.Config {
	return mapreduce.Config{
		Name:           "job1-progressive-blocking",
		NewMapper:      func() mapreduce.Mapper { return &Job1Mapper{Families: fams} },
		NewReducer:     func() mapreduce.Reducer { return &Job1Reducer{Families: fams} },
		NumMapTasks:    cluster.Slots(),
		NumReduceTasks: cluster.Slots(),
		Cluster:        cluster,
		Cost:           cost,
	}
}

// RunJob1 executes progressive blocking + statistics gathering and
// returns the parsed statistics along with the raw job result.
func RunJob1(ds *entity.Dataset, fams Families, cluster mapreduce.Cluster, cost costmodel.Model, startAt costmodel.Units) (*Stats, *mapreduce.Result, error) {
	if err := fams.Validate(); err != nil {
		return nil, nil, err
	}
	cfg := Job1Config(fams, cluster, cost)
	res, err := mapreduce.Run(cfg, MakeJob1Input(ds), startAt)
	if err != nil {
		return nil, nil, err
	}
	stats, err := ParseJob1Output(res)
	if err != nil {
		return nil, nil, err
	}
	return stats, res, nil
}
