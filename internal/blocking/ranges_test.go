package blocking

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/mapreduce"
	"proger/internal/obs/live"
)

// ---- The oracle -------------------------------------------------------
//
// Below are the bodies BuildTree, ComputeUncov, Job1Mapper.Map and
// Job1Reducer.Reduce had while the blocking side worked on decoded
// entities: a hash map per tree level, a member index per (level, key),
// concatenated-string groups per subset mask, an entity decoded and
// re-encoded per record. They are what the range builder, the key view
// and the annotator must reproduce, byte for byte, and nothing else.

func oracleBuildTree(fam *Family, famIdx int, rootKey string, ents []*entity.Entity) *Tree {
	return &Tree{Root: oracleBuildBlock(fam, famIdx, 1, rootKey, ents)}
}

func oracleBuildBlock(fam *Family, famIdx int, level int, key string, ents []*entity.Entity) *Block {
	b := &Block{
		ID:   BlockID{Family: int8(famIdx), Level: int8(level), Key: key},
		Size: len(ents),
	}
	if level >= fam.Levels() {
		return b
	}
	groups := map[string][]*entity.Entity{}
	for _, e := range ents {
		k := fam.Key(e, level+1)
		groups[k] = append(groups[k], e)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		child := oracleBuildBlock(fam, famIdx, level+1, k, groups[k])
		child.Parent = b
		b.Children = append(b.Children, child)
	}
	return b
}

func oracleComputeUncov(fam *Family, tree *Tree, ents []*entity.Entity, mainKeys [][]string) {
	famIdx := int(tree.Root.ID.Family)
	if famIdx == 0 {
		tree.Root.Walk(func(b *Block) { b.Uncov = 0 })
		return
	}
	members := map[BlockID][]int{}
	for i, e := range ents {
		for l := 1; l <= fam.Levels(); l++ {
			id := BlockID{Family: int8(famIdx), Level: int8(l), Key: fam.Key(e, l)}
			members[id] = append(members[id], i)
		}
	}
	tree.Root.Walk(func(b *Block) {
		b.Uncov = oracleUncovPairs(members[b.ID], mainKeys, famIdx)
	})
}

// oracleUncovPairs counts pairs among members sharing at least one main
// key under families 0..famIdx-1, by inclusion-exclusion over non-empty
// subsets of those families.
func oracleUncovPairs(members []int, mainKeys [][]string, famIdx int) int64 {
	if len(members) < 2 || famIdx == 0 {
		return 0
	}
	var total int64
	for mask := 1; mask < 1<<famIdx; mask++ {
		groups := map[string]int{}
		picked := 0
		for f := 0; f < famIdx; f++ {
			if mask&(1<<f) != 0 {
				picked++
			}
		}
		for _, i := range members {
			key := ""
			for f := 0; f < famIdx; f++ {
				if mask&(1<<f) != 0 {
					key += mainKeys[i][f] + "\x00"
				}
			}
			groups[key]++
		}
		var sum int64
		for _, c := range groups {
			sum += entity.Pairs(c)
		}
		if picked%2 == 1 {
			total += sum
		} else {
			total -= sum
		}
	}
	return max(total, 0)
}

type oracleJob1Mapper struct{ Families Families }

func (m *oracleJob1Mapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	e, _, err := entity.DecodeBinary(rec.Value)
	if err != nil {
		return err
	}
	ann := &Annotated{Ent: e, MainKeys: m.Families.MainKeys(e)}
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(m.Families)))
	buf := EncodeAnnotated(nil, ann)
	for famIdx := range m.Families {
		emit.Emit(Job1KeyOf(famIdx, ann.MainKeys[famIdx]), buf)
	}
	return nil
}

type oracleJob1Reducer struct{ Families Families }

func (r *oracleJob1Reducer) Reduce(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	famIdx, mainKey, err := ParseJob1Key(key)
	if err != nil {
		return err
	}
	fam := r.Families[famIdx]
	var ents []*entity.Entity
	var mainKeys [][]string
	for _, v := range values {
		a, _, err := DecodeAnnotated(v)
		if err != nil {
			return err
		}
		ents, mainKeys = append(ents, a.Ent), append(mainKeys, a.MainKeys)
	}
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(ents)*(fam.Levels()-1)))
	tree := oracleBuildTree(fam, famIdx, mainKey, ents)
	if famIdx > 0 {
		subsets := (1 << famIdx) - 1
		ctx.Charge(ctx.Cost.SkipPair * costmodel.Units(len(ents)*subsets*fam.Levels()))
	}
	oracleComputeUncov(fam, tree, ents, mainKeys)
	for _, s := range StatsFromTree(tree) {
		emit.Emit(s.ID.String(), EncodeStat(nil, s))
	}
	return nil
}

// ---- The tests --------------------------------------------------------

// rangeUncov is oracleUncovPairs' question put to the range builder:
// the members as one block of a one-level family.
func rangeUncov(members []int, mainKeys [][]string, famIdx int) int64 {
	var rb rangeBuilder
	rb.reset(&Family{Name: "F", PrefixLens: []int{1}, Index: famIdx + 1}, famIdx, famIdx)
	doms := make([][]byte, famIdx)
	for _, i := range members {
		for f := range doms {
			doms[f] = []byte(mainKeys[i][f])
		}
		rb.keys = append(rb.keys, 'k')
		rb.member(doms)
	}
	var uncov int64
	rb.build("k", func(s *BlockStat) { uncov = s.Uncov })
	return uncov
}

var uncovImpls = map[string]func([]int, [][]string, int) int64{
	"oracle": oracleUncovPairs,
	"ranges": rangeUncov,
}

// recordingEmitter keeps what a mapper or reducer emits, copying each
// value at the moment of emission so that later reuse of a buffer would
// show.
type recordingEmitter struct{ recs []mapreduce.KeyValue }

func (e *recordingEmitter) Emit(key string, value []byte) {
	e.recs = append(e.recs, mapreduce.KeyValue{Key: key, Value: bytes.Clone(value)})
}

func sameRecords(t *testing.T, what string, got, want []mapreduce.KeyValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, oracle %d", what, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Key != w.Key || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("%s: record %d is (%q, %x), oracle (%q, %x)", what, i, g.Key, g.Value, w.Key, w.Value)
		}
	}
}

// randomValue draws a blocking attribute value: a few letters of a small
// alphabet in mixed case, so that prefixes collide at every level, now
// and then short, empty, padded with whitespace or carrying runes whose
// lower-casing changes the byte length.
func randomValue(rng *rand.Rand) string {
	if rng.Intn(12) == 0 {
		return []string{"", " ", "İa", "aİb", "AKb", "ab\xffc", "  b a", "\tab ba", "ẞa"}[rng.Intn(9)]
	}
	var sb strings.Builder
	for n := rng.Intn(7); n >= 0; n-- {
		sb.WriteByte("aAbBcC d"[rng.Intn(8)])
	}
	return sb.String()
}

// TestRangeBuilderMatchesMapOracle: on seeded random datasets blocked by
// one to four families — prefix and Soundex keys, one to three levels,
// so the fourth family's blocks count uncovered pairs over three
// dominating families — every main block's statistics from the range
// builder (through BuildTree and ComputeUncov, and as Job 1's reduce
// function emits them from encoded records) equal the map-based
// construction's: IDs, sizes, child keys, order and Uncov.
func TestRangeBuilderMatchesMapOracle(t *testing.T) {
	uncovered := [4]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nf := 1 + rng.Intn(4)
		fams := make(Families, nf)
		for f := range fams {
			lens := []int{1 + rng.Intn(2)}
			for l := rng.Intn(3); l > 0; l-- {
				lens = append(lens, lens[len(lens)-1]+1+rng.Intn(2))
			}
			fams[f] = &Family{Name: fmt.Sprint("F", f), Attr: f, PrefixLens: lens, Index: f + 1, Kind: KeyKind(rng.Intn(2))}
		}
		ds := entity.NewDataset(entity.MustSchema("a", "b", "c", "d"))
		for n := 20 + rng.Intn(300); n > 0; n-- {
			ds.Append(randomValue(rng), randomValue(rng), randomValue(rng), randomValue(rng))
		}
		red := &Job1Reducer{Families: fams}
		for famIdx, fam := range fams {
			keys, groups := GroupByMainKey(ds, fam)
			for _, k := range keys {
				ents := groups[k]
				mainKeys := make([][]string, len(ents))
				var values [][]byte
				for i, e := range ents {
					mainKeys[i] = fams.MainKeys(e)
					values = append(values, EncodeAnnotated(nil, &Annotated{Ent: e, MainKeys: mainKeys[i]}))
				}
				want := oracleBuildTree(fam, famIdx, k, ents)
				oracleComputeUncov(fam, want, ents, mainKeys)
				got := BuildTree(fam, famIdx, k, ents)
				ComputeUncov(fam, got, ents, mainKeys)
				wantStats := StatsFromTree(want)
				if gotStats := StatsFromTree(got); !reflect.DeepEqual(gotStats, wantStats) {
					t.Fatalf("seed %d family %d block %q: stats\n%v\noracle\n%v", seed, famIdx, k, statsString(gotStats), statsString(wantStats))
				}
				got.Root.Walk(func(b *Block) {
					for _, c := range b.Children {
						if c.Parent != b {
							t.Fatalf("seed %d: %s is not the parent of its child %s", seed, b.ID, c.ID)
						}
					}
				})
				var out recordingEmitter
				if err := red.Reduce(&mapreduce.TaskContext{Cost: costmodel.Default()}, Job1KeyOf(famIdx, k), values, &out); err != nil {
					t.Fatal(err)
				}
				if len(out.recs) != len(wantStats) {
					t.Fatalf("seed %d family %d block %q: reducer emits %d stats, oracle %d", seed, famIdx, k, len(out.recs), len(wantStats))
				}
				for i, w := range wantStats {
					if r := out.recs[i]; r.Key != w.ID.String() || !bytes.Equal(r.Value, EncodeStat(nil, w)) {
						t.Fatalf("seed %d family %d block %q: reducer's stat %d is %q, oracle %+v", seed, famIdx, k, i, r.Key, w)
					}
				}
				uncovered[famIdx] = uncovered[famIdx] || want.Root.Uncov > 0
			}
		}
	}
	if uncovered != [4]bool{false, true, true, true} {
		t.Errorf("main blocks with uncovered pairs seen per family index: %v — want every dominated one", uncovered)
	}
}

func statsString(stats []*BlockStat) string {
	var sb strings.Builder
	for _, s := range stats {
		fmt.Fprintf(&sb, "  %s size %d uncov %d children %q\n", s.ID, s.Size, s.Uncov, s.ChildKeys)
	}
	return sb.String()
}

// job1Shape is one dataset with its blocking configuration.
type job1Shape struct {
	name string
	make func(n int) (*entity.Dataset, Families)
}

// job1Shapes are the three workload shapes of the wall-clock benchmark.
var job1Shapes = []job1Shape{
	{"persons", func(n int) (*entity.Dataset, Families) {
		ds, _ := datagen.PersonRecords(datagen.DefaultPeople(n, 5))
		idx := ds.Schema.Index
		return ds, Families{
			{Name: "S", Attr: idx("name"), PrefixLens: []int{1, 2, 4}, Index: 1, Kind: KeySoundex},
			{Name: "C", Attr: idx("city"), PrefixLens: []int{3, 5}, Index: 2},
			{Name: "T", Attr: idx("state"), PrefixLens: []int{2}, Index: 3},
		}
	}},
	{"books", func(n int) (*entity.Dataset, Families) {
		ds, _ := datagen.Books(datagen.DefaultBooks(n, 5))
		return ds, OLBooksFamilies(ds.Schema)
	}},
	{"publications", func(n int) (*entity.Dataset, Families) {
		ds, _ := datagen.Publications(datagen.DefaultPublications(n, 5))
		return ds, CiteSeerXFamilies(ds.Schema)
	}},
}

// group is one reduce call's input.
type group struct {
	key    string
	values [][]byte
}

// shuffled groups map output the way the engine's shuffle does: by key,
// keys in byte order, a key's values in emission order.
func shuffled(recs []mapreduce.KeyValue) []group {
	recs = append([]mapreduce.KeyValue(nil), recs...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	var groups []group
	for _, kv := range recs {
		if len(groups) == 0 || groups[len(groups)-1].key != kv.Key {
			groups = append(groups, group{key: kv.Key})
		}
		g := &groups[len(groups)-1]
		g.values = append(g.values, kv.Value)
	}
	return groups
}

// TestJob1MatchesEntityDecodingOracle: on the three workload shapes the
// map function's emitted (key, value) sequence, the reduce function's —
// one reducer for all main blocks, as in a reduce task — and the
// simulated cost both charge equal, record for record and byte for
// byte, what the entity-decoding bodies produce.
func TestJob1MatchesEntityDecodingOracle(t *testing.T) {
	for _, shape := range job1Shapes {
		ds, fams := shape.make(700)
		input := MakeJob1Input(ds)
		got, want := &Job1Mapper{Families: fams}, &oracleJob1Mapper{Families: fams}
		gotCtx := &mapreduce.TaskContext{Type: live.PhaseMap, Cost: costmodel.Default()}
		wantCtx := &mapreduce.TaskContext{Type: live.PhaseMap, Cost: costmodel.Default()}
		var gotOut, wantOut recordingEmitter
		for _, rec := range input {
			if err := got.Map(gotCtx, rec, &gotOut); err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			if err := want.Map(wantCtx, rec, &wantOut); err != nil {
				t.Fatalf("%s: oracle: %v", shape.name, err)
			}
		}
		sameRecords(t, shape.name+" map", gotOut.recs, wantOut.recs)
		if g, w := gotCtx.Now(), wantCtx.Now(); g != w {
			t.Errorf("%s: map charged %v, oracle %v", shape.name, g, w)
		}

		gotRed, wantRed := &Job1Reducer{Families: fams}, &oracleJob1Reducer{Families: fams}
		gotCtx = &mapreduce.TaskContext{Type: live.PhaseReduce, Cost: costmodel.Default()}
		wantCtx = &mapreduce.TaskContext{Type: live.PhaseReduce, Cost: costmodel.Default()}
		var gotStats, wantStats recordingEmitter
		for _, g := range shuffled(wantOut.recs) {
			if err := gotRed.Reduce(gotCtx, g.key, g.values, &gotStats); err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			if err := wantRed.Reduce(wantCtx, g.key, g.values, &wantStats); err != nil {
				t.Fatalf("%s: oracle: %v", shape.name, err)
			}
		}
		sameRecords(t, shape.name+" reduce", gotStats.recs, wantStats.recs)
		if g, w := gotCtx.Now(), wantCtx.Now(); g != w {
			t.Errorf("%s: reduce charged %v, oracle %v", shape.name, g, w)
		}
	}
}

// TestJob1ReducerRejectsShortAnnotation: a record that carries fewer
// main keys than the reduce key's family has dominating families is an
// error naming the record's block, not an index out of range; an
// attribute index beyond the record's arity keeps meaning "".
func TestJob1ReducerRejectsShortAnnotation(t *testing.T) {
	fams := Families{
		{Name: "X", Attr: 0, PrefixLens: []int{1}, Index: 1},
		{Name: "Y", Attr: 1, PrefixLens: []int{1}, Index: 2},
		{Name: "Z", Attr: 5, PrefixLens: []int{1, 2}, Index: 3},
	}
	e := &entity.Entity{ID: 7, Attrs: []string{"ab", "cd"}}
	full := EncodeAnnotated(nil, &Annotated{Ent: e, MainKeys: []string{"a", "c", ""}})
	short := EncodeAnnotated(nil, &Annotated{Ent: e, MainKeys: []string{"a"}})
	red := &Job1Reducer{Families: fams}
	ctx := &mapreduce.TaskContext{Cost: costmodel.Default()}

	var out recordingEmitter
	err := red.Reduce(ctx, "2|", [][]byte{full, short}, &out)
	if want := `blocking: job-1 record at "2|" carries 1 main keys, family 2 needs 2`; err == nil || err.Error() != want {
		t.Errorf("short annotation: error %v, want %s", err, want)
	}
	if len(out.recs) != 0 {
		t.Errorf("short annotation: %d records emitted before the error", len(out.recs))
	}
	// The same record is fine where one key is all that is asked of it.
	if err := red.Reduce(ctx, "1|c", [][]byte{full, short}, &out); err != nil {
		t.Errorf("family 1 needs one main key: %v", err)
	}
	// Attribute 5 of a two-attribute record is "": one block, key "",
	// with one (equally keyed) child.
	out.recs = nil
	if err := red.Reduce(ctx, "2|", [][]byte{full, full}, &out); err != nil {
		t.Fatal(err)
	}
	want := []*BlockStat{
		{ID: BlockID{Family: 2, Level: 1, Key: ""}, Size: 2, Uncov: 1, ChildKeys: []string{""}},
		{ID: BlockID{Family: 2, Level: 2, Key: ""}, Size: 2, Uncov: 1},
	}
	for i, w := range want {
		if i >= len(out.recs) || !bytes.Equal(out.recs[i].Value, EncodeStat(nil, w)) {
			t.Fatalf("missing attribute: stat %d of %d differs from %+v", i, len(out.recs), w)
		}
	}
}

// TestMakeJob1InputBytes: the arena-cut input equals the
// record-at-a-time encoding, and a value cannot grow into the next.
func TestMakeJob1InputBytes(t *testing.T) {
	ds, _ := datagen.Publications(datagen.DefaultPublications(1203, 4))
	in := MakeJob1Input(ds)
	if len(in) != ds.Len() {
		t.Fatalf("%d records for %d entities", len(in), ds.Len())
	}
	for i, e := range ds.Entities {
		if want := fmt.Sprint(i); in[i].Key != want {
			t.Fatalf("record %d has key %q", i, in[i].Key)
		}
		if want := entity.EncodeBinary(nil, e); !bytes.Equal(in[i].Value, want) || entity.EncodedSize(e) != len(want) {
			t.Fatalf("record %d: value %x (size %d), want %x", i, in[i].Value, entity.EncodedSize(e), want)
		}
		if cap(in[i].Value) != len(in[i].Value) {
			t.Fatalf("record %d: value has room to grow into its neighbour (len %d cap %d)", i, len(in[i].Value), cap(in[i].Value))
		}
	}
	if len(MakeJob1Input(entity.NewDataset(ds.Schema))) != 0 {
		t.Error("empty dataset: want no records")
	}
	// (Three; the race detector's build makes one more.)
	if got := testing.AllocsPerRun(3, func() { MakeJob1Input(ds) }); got > 4 {
		t.Errorf("MakeJob1Input allocates %.0f objects for %d entities, want the records, one arena, one key string", got, ds.Len())
	}
}

// ---- Benchmarks -------------------------------------------------------

// discardEmitter swallows emissions so a benchmark isolates the map or
// reduce function's own work.
type discardEmitter struct{ n int }

func (e *discardEmitter) Emit(string, []byte) { e.n++ }

// BenchmarkJob1Map runs Job 1's map function over a full dataset, one
// mapper per pass as one map task would.
func BenchmarkJob1Map(b *testing.B) {
	for _, shape := range job1Shapes {
		if shape.name == "books" {
			continue
		}
		b.Run(shape.name, func(b *testing.B) {
			ds, fams := shape.make(6000)
			input := MakeJob1Input(ds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := &Job1Mapper{Families: fams}
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

// BenchmarkJob1Reduce drives Job 1's reduce function over real shuffled
// map output: every main block of every family, one reducer per pass.
func BenchmarkJob1Reduce(b *testing.B) {
	for _, shape := range job1Shapes {
		if shape.name == "books" {
			continue
		}
		b.Run(shape.name, func(b *testing.B) {
			ds, fams := shape.make(6000)
			m := &Job1Mapper{Families: fams}
			mctx := &mapreduce.TaskContext{Job: "bench", Type: live.PhaseMap, Cost: costmodel.Default()}
			var out recordingEmitter
			for _, rec := range MakeJob1Input(ds) {
				if err := m.Map(mctx, rec, &out); err != nil {
					b.Fatal(err)
				}
			}
			groups := shuffled(out.recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				red := &Job1Reducer{Families: fams}
				ctx := &mapreduce.TaskContext{Job: "bench", Type: live.PhaseReduce, Cost: costmodel.Default()}
				emit := &discardEmitter{}
				for _, g := range groups {
					if err := red.Reduce(ctx, g.key, g.values, emit); err != nil {
						b.Fatal(err)
					}
				}
				if emit.n == 0 {
					b.Fatal("reducer emitted nothing")
				}
			}
		})
	}
}
