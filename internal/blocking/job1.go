package blocking

import (
	"fmt"
	"strconv"
	"strings"

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
	ann      Annotator
}

// Map implements mapreduce.Mapper.
func (m *Job1Mapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	buf, keys, err := m.ann.Annotate(m.Families, rec.Value)
	if err != nil {
		return err
	}
	// Key computation cost: one prefix extraction per family.
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(m.Families)))
	for _, key := range keys {
		emit.Emit(key, buf)
	}
	ctx.Inc(CounterJob1Entities, 1)
	return nil
}

// Job1Reducer builds one blocking tree per main block and emits its
// statistics. It reads keys, not entities: of each annotated entity the
// family's blocking attribute and the main keys of the dominating
// families, in place.
type Job1Reducer struct {
	mapreduce.ReducerBase
	Families Families
	view     AnnotatedView
	// tree is borrowed at the task's first main block and returned in
	// Cleanup.
	tree *rangeBuilder
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
	if r.tree == nil {
		r.tree = treeBuilders.Get().(*rangeBuilder)
	}
	rb := r.tree
	rb.reset(fam, famIdx, famIdx)
	for _, v := range values {
		if _, err := r.view.Scan(v); err != nil {
			return err
		}
		if len(r.view.MainKeys) < famIdx {
			return fmt.Errorf("blocking: job-1 record at %q carries %d main keys, family %d needs %d",
				key, len(r.view.MainKeys), famIdx, famIdx)
		}
		rb.keys = fam.AppendKey(rb.keys, r.view.Ent.Attr(fam.Attr), fam.Levels())
		rb.member(r.view.MainKeys)
	}
	// Tree construction: one key computation per entity per sub-level.
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(values)*(fam.Levels()-1)))
	// Uncovered-pair accounting: inclusion-exclusion over the
	// dominating families, one grouping pass per subset per level.
	if famIdx > 0 {
		subsets := (1 << famIdx) - 1
		ctx.Charge(ctx.Cost.SkipPair * costmodel.Units(len(values)*subsets*fam.Levels()))
	}
	rb.build(mainKey, func(s *BlockStat) {
		emit.Emit(s.ID.String(), EncodeStat(nil, s))
		ctx.Inc(CounterJob1Blocks, 1)
	})
	ctx.Inc(CounterJob1Trees, 1)
	return nil
}

// Cleanup implements mapreduce.Reducer.
func (r *Job1Reducer) Cleanup(*mapreduce.TaskContext, mapreduce.Emitter) error {
	if r.tree != nil {
		r.tree.release()
		r.tree = nil
	}
	return nil
}

// MakeJob1Input turns a dataset into the job's input records. The
// values are cut from one arena and the decimal keys from one string;
// a value's capacity is clipped to its length, so appending to one can
// never write into its neighbour.
func MakeJob1Input(ds *entity.Dataset) []mapreduce.KeyValue {
	size, digits := 0, 0
	for i, e := range ds.Entities {
		size += entity.EncodedSize(e)
		digits += decimalLen(i)
	}
	arena := make([]byte, 0, size)
	var keyBuf strings.Builder
	keyBuf.Grow(digits)
	var decimal [20]byte
	for i := range ds.Entities {
		keyBuf.Write(strconv.AppendInt(decimal[:0], int64(i), 10))
	}
	keys := keyBuf.String()
	in := make([]mapreduce.KeyValue, ds.Len())
	for i, e := range ds.Entities {
		at := len(arena)
		arena = entity.EncodeBinary(arena, e)
		n := decimalLen(i)
		in[i] = mapreduce.KeyValue{Key: keys[:n], Value: arena[at:len(arena):len(arena)]}
		keys = keys[n:]
	}
	return in
}

// decimalLen returns len(strconv.Itoa(i)) for i ≥ 0.
func decimalLen(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
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
