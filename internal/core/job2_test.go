package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"proger/internal/blocking"
	"proger/internal/datagen"
	"proger/internal/dedup"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// splitSchedule hand-builds the §V example topology: family X's tree
// T(X¹ₐ) had its child X²ₐᵦ split off into its own tree, and family Y
// has one root tree. Trees are in dominance (ID) order, so
// Dom(T(X¹ₐ)) = 0, Dom(T(X²ₐᵦ)) = 1, Dom(T(Y¹)) = 2.
func splitSchedule() (*sched.Schedule, blocking.Families) {
	fams := blocking.Families{
		{Name: "X", Attr: 0, PrefixLens: []int{1, 2, 3}, Index: 1},
		{Name: "Y", Attr: 1, PrefixLens: []int{1}, Index: 2},
	}
	xRoot := &blocking.Block{ID: blocking.BlockID{Family: 0, Level: 1, Key: "a"}, Size: 4, FullResolve: true}
	xSplit := &blocking.Block{ID: blocking.BlockID{Family: 0, Level: 2, Key: "ab"}, Size: 3, FullResolve: true, Frac: 1}
	yRoot := &blocking.Block{ID: blocking.BlockID{Family: 1, Level: 1, Key: "z"}, Size: 4, FullResolve: true}
	trees := []*blocking.Tree{
		{Root: xRoot, Dom: 0},
		{Root: xSplit, Dom: 1},
		{Root: yRoot, Dom: 2},
	}
	s := &sched.Schedule{
		Trees:      trees,
		TaskOfTree: []int{0, 0, 0},
		TaskBlocks: [][]*blocking.Block{{xSplit, xRoot, yRoot}},
		R:          1,
	}
	for i, t := range trees {
		for _, b := range t.Blocks() {
			s.ByID.Add(b)
			b.Tree = i
		}
	}
	for task, blocks := range s.TaskBlocks {
		for pos, b := range blocks {
			b.SQ = sched.SQFor(task, pos)
			b.SQKey = sched.SQKey(b.SQ)
		}
	}
	return s, fams
}

// listOf runs the mapper on e and derives from the value it emits, as
// the reducer does, e's dominance row for the tree T of its family-j
// block at the given level: List(e, T), with e's sentinel at position n
// where the list has no (n+1)st value.
func listOf(t *testing.T, m *Job2Mapper, e *entity.Entity, j, level int) dedup.List {
	t.Helper()
	var out recordingEmitter
	if err := m.Map(&mapreduce.TaskContext{}, mapreduce.KeyValue{Value: entity.EncodeBinary(nil, e)}, &out); err != nil {
		t.Fatal(err)
	}
	b := m.path[j][level-1]
	for _, rec := range out.recs {
		if rec.Key == b.SQKey {
			return rowOf(t, m.side, b, rec.Value)
		}
	}
	t.Fatalf("e%d: nothing emitted for block %s", e.ID, b.ID)
	return nil
}

// rowOf is the dominance row that the reducer's admit derives from a
// Job-2 value arriving with block b.
func rowOf(t *testing.T, side *job2Side, b *blocking.Block, value []byte) dedup.List {
	t.Helper()
	ts := &treeState{tree: b.Tree}
	if err := ts.admit(side, [][]byte{value}); err != nil {
		t.Fatalf("block %s: %v", b.ID, err)
	}
	return ts.doms
}

func TestBuildListWithSplitTree(t *testing.T) {
	s, fams := splitSchedule()
	m := &Job2Mapper{side: &job2Side{schedule: s, families: fams}}
	// Entity whose X path is a → ab → ab? ("ab" value, 2 chars) and Y
	// key "z".
	e := &entity.Entity{ID: 5, Attrs: []string{"abq", "z"}}

	// Emission for the X main tree (tree 0, shallowest level 1): the
	// list must carry [Dom(own X tree)=0, Dom(Y tree)=2] plus the
	// (n+1)st value Dom(split descendant)=1. A list without one gets the
	// entity's sentinel there.
	sentinel := dedup.SentinelFor(int32(e.ID))
	if list := listOf(t, m, e, 0, 1); !reflect.DeepEqual(list, dedup.List{0, 2, 1}) {
		t.Errorf("List(e, T(X¹ₐ)) = %v, want [0 2 1]", list)
	}

	// Emission for the split tree itself (tree 1, level 2): own family
	// position is the split tree's Dom; no deeper split exists.
	if list := listOf(t, m, e, 0, 2); !reflect.DeepEqual(list, dedup.List{1, 2, sentinel}) {
		t.Errorf("List(e, T(X²ₐᵦ)) = %v, want [1 2 %d]", list, sentinel)
	}

	// Emission for the Y tree: X position refers to the MAIN X tree
	// (not the split), as §V specifies.
	if list := listOf(t, m, e, 1, 1); !reflect.DeepEqual(list, dedup.List{0, 2, sentinel}) {
		t.Errorf("List(e, T(Y¹)) = %v, want [0 2 %d]", list, sentinel)
	}
}

func TestSplitListsResolveExactlyOnce(t *testing.T) {
	// Two entities sharing the whole topology: the split tree (and only
	// it) must claim the pair.
	s, fams := splitSchedule()
	m := &Job2Mapper{side: &job2Side{schedule: s, families: fams}}
	a := &entity.Entity{ID: 1, Attrs: []string{"abq", "z"}}
	b := &entity.Entity{ID: 2, Attrs: []string{"abr", "z"}}
	n := len(fams)
	resolvers := 0
	// X main tree (index 1).
	if dedup.ShouldResolve(listOf(t, m, a, 0, 1), listOf(t, m, b, 0, 1), 1, n) {
		resolvers++
		t.Error("main X tree must defer to the split descendant")
	}
	// Split tree (index 1).
	if dedup.ShouldResolve(listOf(t, m, a, 0, 2), listOf(t, m, b, 0, 2), 1, n) {
		resolvers++
	} else {
		t.Error("split tree must resolve its own pair")
	}
	// Y tree (index 2).
	if dedup.ShouldResolve(listOf(t, m, a, 1, 1), listOf(t, m, b, 1, 1), 2, n) {
		resolvers++
		t.Error("Y tree must defer to the dominating X family")
	}
	if resolvers != 1 {
		t.Errorf("%d trees claim the pair, want exactly 1", resolvers)
	}
}

func TestJob2PartitionerRouting(t *testing.T) {
	if got := Job2Partitioner(sched.SQKey(sched.SQFor(3, 17)), 8); got != 3 {
		t.Errorf("partition = %d, want 3", got)
	}
	// Malformed or out-of-range keys fall back to task 0 rather than
	// crashing the job.
	if got := Job2Partitioner("garbage", 8); got != 0 {
		t.Errorf("garbage key → %d", got)
	}
	if got := Job2Partitioner(sched.SQKey(sched.SQFor(99, 0)), 8); got != 0 {
		t.Errorf("out-of-range task → %d", got)
	}
}

func TestResolveWithHierarchyMechanism(t *testing.T) {
	// The pipeline is mechanism-agnostic: the hierarchical partitioning
	// hint must work as M end to end.
	ds, gt := datagen.People()
	res, err := Resolve(ds, Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.Hierarchy{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
	})
	if err != nil {
		t.Fatalf("Resolve with hierarchy hint: %v", err)
	}
	if int64(len(res.Duplicates)) != gt.NumDupPairs() {
		t.Errorf("found %d, want %d", len(res.Duplicates), gt.NumDupPairs())
	}
}

// TestResolveLeavesInputUntouched pins what lets Resolve encode the
// dataset once for both jobs: no mapper of either job writes to a
// record it is handed, and the result is the one Resolve itself gives.
func TestResolveLeavesInputUntouched(t *testing.T) {
	ds, gt := datagen.Publications(datagen.DefaultPublications(600, 73))
	opts := pubOptions(ds, gt, 3)
	want, err := Resolve(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	input := blocking.MakeJob1Input(ds)
	before := make([]mapreduce.KeyValue, len(input))
	for i, kv := range input {
		before[i] = mapreduce.KeyValue{Key: kv.Key, Value: bytes.Clone(kv.Value)}
	}
	got, err := resolve(ds, input, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(input, before) {
		t.Error("the jobs changed their input records")
	}
	if !reflect.DeepEqual(got.Events, want.Events) || got.TotalTime != want.TotalTime {
		t.Error("resolve on a caller's input departs from Resolve")
	}
}

// FuzzJob2Payload holds the reducer's row derivation to the value a
// mapper could have sent: a valid entity followed by arbitrary bytes,
// arriving with a block of any tree of the §V split schedule. admit
// either fails, leaving no row, or derives n+1 values, and then only
// from exactly n chains that dedup.Decode reads — the tree's own Dom
// among its family's — and equal to the row they spell; it never panics
// or reads past the value.
func FuzzJob2Payload(f *testing.F) {
	s, fams := splitSchedule()
	side, n := &job2Side{schedule: s, families: fams}, len(fams)
	const id = 5
	ent := entity.EncodeBinary(nil, &entity.Entity{ID: id, Attrs: []string{"abq", "z"}})
	chains := func(cs ...dedup.List) []byte {
		var b []byte
		for _, c := range cs {
			b = dedup.Encode(b, c)
		}
		return b
	}
	f.Add(uint8(0), chains(dedup.List{0, 1}, dedup.List{2})) // e's own value
	f.Add(uint8(2), chains(nil, nil))                        // empty chains
	f.Add(uint8(2), []byte{0x05, 0x00})                      // a count larger than the remaining bytes
	f.Add(uint8(0), []byte{0x01, 0x80})                      // a truncated varint
	f.Add(uint8(1), chains(dedup.List{0}, dedup.List{2}))    // an own chain that lacks T
	f.Fuzz(func(t *testing.T, tree uint8, rest []byte) {
		ts := &treeState{tree: int(tree) % len(s.Trees)}
		tr := s.Trees[ts.tree]
		value := append(ent[:len(ent):len(ent)], rest...)
		if err := ts.admit(side, [][]byte{value[:len(value):len(value)]}); err != nil {
			if len(ts.doms) != 0 {
				t.Fatalf("failed (%v) but left the row %v", err, ts.doms)
			}
			return
		}
		if len(ts.doms) != n+1 {
			t.Fatalf("derived %d values, want %d", len(ts.doms), n+1)
		}
		var cs []dedup.List
		for k := 0; k < n; k++ {
			c, w, err := dedup.Decode(rest)
			if err != nil {
				t.Fatalf("derived %v from chain %d that does not decode: %v", ts.doms, k, err)
			}
			cs, rest = append(cs, c), rest[w:]
		}
		own, sentinel := int(tr.Root.ID.Family), dedup.SentinelFor(id)
		at := slices.Index(cs[own], tr.Dom)
		if len(rest) > 0 || at < 0 {
			t.Fatalf("derived %v from chains %v with %d bytes to spare", ts.doms, cs, len(rest))
		}
		want := make(dedup.List, n+1)
		for k, c := range cs {
			switch {
			case k == own:
				want[k] = tr.Dom
			case len(c) > 0:
				want[k] = c[0]
			default:
				want[k] = sentinel
			}
		}
		if want[n] = sentinel; at+1 < len(cs[own]) {
			want[n] = cs[own][at+1]
		}
		if !slices.Equal(ts.doms, want) {
			t.Fatalf("chains %v derive %v, want %v", cs, ts.doms, want)
		}
	})
}
