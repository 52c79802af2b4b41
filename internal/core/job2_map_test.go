package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/dedup"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// lookupMapper is the Job-2 map function as it was before the mapper
// cached an entity's block path: one schedule lookup per (family, level)
// to emit, more of them per emitted tree to build the list, and the
// entity re-encoded from its decoded form. It is the oracle of
// TestJob2MapperMatchesLookupPerLevelOracle and nothing else.
type lookupMapper struct {
	side   *job2Side
	treeOf map[blocking.BlockID]int
}

func newLookupMapper(side *job2Side) *lookupMapper {
	m := &lookupMapper{side: side, treeOf: map[blocking.BlockID]int{}}
	for i, t := range side.schedule.Trees {
		for _, b := range t.Blocks() {
			m.treeOf[b.ID] = i
		}
	}
	return m
}

func (m *lookupMapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	e, _, err := entity.DecodeBinary(rec.Value)
	if err != nil {
		return err
	}
	s, fams := m.side.schedule, m.side.families
	deep := make([]string, len(fams))
	totalLevels := 0
	for j, f := range fams {
		totalLevels += f.Levels()
		deep[j] = f.Key(e, f.Levels())
	}
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(totalLevels))
	entBuf := entity.EncodeBinary(nil, e)
	for j, f := range fams {
		lastTree := -1
		var lastVal []byte
		for l := 1; l <= f.Levels(); l++ {
			id := blocking.BlockID{Family: int8(j), Level: int8(l), Key: f.Shallower(deep[j], l)}
			b := s.ByID.Lookup(int(id.Family), int(id.Level), []byte(id.Key))
			if b == nil {
				continue // pruned block
			}
			ti := m.treeOf[id]
			if ti != lastTree {
				lastTree = ti
				lastVal = dedup.Encode(bytes.Clone(entBuf), m.list(e, deep, j, l, ti))
			}
			emit.Emit(b.SQKey, lastVal)
			ctx.Inc(CounterJob2Emitted, 1)
		}
	}
	return nil
}

// list is List(e, T) per §V for the tree at index ti of family j, whose
// shallowest block on e's path is at `level`.
func (m *lookupMapper) list(e *entity.Entity, deep []string, j, level, ti int) dedup.List {
	s, fams := m.side.schedule, m.side.families
	tree := s.Trees[ti]
	list := make(dedup.List, len(fams))
	for k, f := range fams {
		if k == j {
			list[k] = tree.Dom
			continue
		}
		id := blocking.BlockID{Family: int8(k), Level: 1, Key: f.Shallower(deep[k], 1)}
		if t, ok := m.treeOf[id]; ok {
			list[k] = s.Trees[t].Dom
		} else {
			list[k] = dedup.SentinelFor(int32(e.ID))
		}
	}
	f := fams[j]
	for l := max(level, int(tree.Root.ID.Level)) + 1; l <= f.Levels(); l++ {
		id := blocking.BlockID{Family: int8(j), Level: int8(l), Key: f.Shallower(deep[j], l)}
		t, ok := m.treeOf[id]
		if !ok {
			break // pruned below; nothing deeper can be scheduled
		}
		if t != ti && s.Trees[t].Root.ID == id {
			list = append(list, s.Trees[t].Dom)
			break
		}
	}
	return list
}

// recordingEmitter keeps what a mapper emits, copying each value at the
// moment of emission so that later reuse of a buffer would show, and
// where each value's bytes were.
type recordingEmitter struct {
	recs  []mapreduce.KeyValue
	first []*byte
}

func (e *recordingEmitter) Emit(key string, value []byte) {
	e.recs = append(e.recs, mapreduce.KeyValue{Key: key, Value: bytes.Clone(value)})
	e.first = append(e.first, &value[0])
}

// TestJob2MapperMatchesLookupPerLevelOracle: over seeded random
// datasets, family shapes and scheduler settings — schedules with
// pruned blocks and with split-off trees, which the test insists on
// having seen — the mapper emits, record for record, under the same keys
// and in the same order, what the lookup-per-level mapper emits; every
// record carries the entity byte for byte, the dominance row the reducer
// derives for the record's block is the oracle's List(e, X) (with the
// entity's sentinel where the list has no (n+1)st value), all records of
// one entity share one value, and the two charge the same simulated cost.
func TestJob2MapperMatchesLookupPerLevelOracle(t *testing.T) {
	sawSplit, sawPruned := false, false
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, _ := datagen.PersonRecords(datagen.DefaultPeople(300+rng.Intn(1500), seed))
		idx := ds.Schema.Index
		opts := Options{
			Families: blocking.Families{
				{Name: "S", Attr: idx("name"), PrefixLens: [][]int{{1, 2, 4}, {1, 3}, {2}}[rng.Intn(3)], Index: 1, Kind: blocking.KeySoundex},
				{Name: "C", Attr: idx("city"), PrefixLens: [][]int{{3, 5}, {1, 2, 4, 6}, {2}}[rng.Intn(3)], Index: 2},
				{Name: "T", Attr: idx("state"), PrefixLens: [][]int{{2}, {1, 2}}[rng.Intn(2)], Index: 3},
			}[:1+rng.Intn(3)],
			Matcher:         match.MustNew(0.6, match.Rule{Attr: idx("phone"), Weight: 1, Kind: match.ExactMatch}),
			Mechanism:       mechanism.SN{},
			Policy:          estimate.CiteSeerXPolicy(),
			Machines:        1 + rng.Intn(6),
			SlotsPerMachine: 1 + rng.Intn(2),
		}
		side, input, _ := buildJob2Side(t, ds, opts, 1+rng.Intn(8), 1+rng.Intn(4))
		for _, tree := range side.schedule.Trees {
			sawSplit = sawSplit || tree.Root.ID.Level > 1
		}
		name := fmt.Sprintf("seed %d", seed)
		got, want := &Job2Mapper{side: side}, newLookupMapper(side)
		gotCtx := &mapreduce.TaskContext{Type: mapreduce.MapTask, Index: 1, Cost: costmodel.Default()}
		wantCtx := &mapreduce.TaskContext{Type: mapreduce.MapTask, Index: 1, Cost: costmodel.Default()}
		if err := got.Setup(gotCtx); err != nil {
			t.Fatal(err)
		}
		wantCtx.Charge(gotCtx.Now()) // the schedule-generation charge
		var gotOut, wantOut recordingEmitter
		for _, rec := range input {
			from := len(gotOut.first)
			if err := got.Map(gotCtx, rec, &gotOut); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := from; i < len(gotOut.first); i++ {
				if gotOut.first[i] != gotOut.first[from] {
					t.Fatalf("%s: record %d of an entity's %d has a value of its own", name, i-from, len(gotOut.first)-from)
				}
			}
			if err := want.Map(wantCtx, rec, &wantOut); err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
		}
		if len(gotOut.recs) != len(wantOut.recs) {
			t.Fatalf("%s: %d records emitted, oracle %d", name, len(gotOut.recs), len(wantOut.recs))
		}
		n := len(side.families)
		for i, w := range wantOut.recs {
			g := gotOut.recs[i]
			e, size, err := entity.DecodeBinary(w.Value)
			if err != nil {
				t.Fatal(err)
			}
			list, _, err := dedup.Decode(w.Value[size:])
			if err != nil {
				t.Fatal(err)
			}
			if len(list) == n {
				list = append(list, dedup.SentinelFor(int32(e.ID)))
			}
			sq, err := sched.ParseSQKey(g.Key)
			if err != nil || g.Key != w.Key || !bytes.HasPrefix(g.Value, w.Value[:size]) {
				t.Fatalf("%s: record %d is (%s, %x), oracle (%s, %x)", name, i, g.Key, g.Value, w.Key, w.Value)
			}
			if row := rowOf(t, side, side.schedule.Block(sq), g.Value); !slices.Equal(row, list) {
				t.Fatalf("%s: record %d (%s): row %v, oracle %v", name, i, g.Key, row, list)
			}
		}
		if g, w := gotCtx.Now(), wantCtx.Now(); g != w {
			t.Errorf("%s: charged %v, oracle %v", name, g, w)
		}
		// Every entity has one block per (family, level): fewer
		// emissions than that means the schedule pruned some.
		levels := 0
		for _, f := range side.families {
			levels += f.Levels()
		}
		sawPruned = sawPruned || len(wantOut.recs) < levels*len(input)
	}
	if !sawSplit || !sawPruned {
		t.Errorf("schedules exercised: split-off trees %v, pruned blocks %v — want both", sawSplit, sawPruned)
	}
}
