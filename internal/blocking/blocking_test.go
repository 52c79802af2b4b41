package blocking

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/mapreduce"
	"proger/internal/textsim"
)

// peopleFamilies mirrors the paper's Table-I example: X keys on the
// first 2 chars of name (sub-levels 3 and 5), Y keys on state.
func peopleFamilies() Families {
	return Families{
		{Name: "X", Attr: 0, PrefixLens: []int{2, 3, 5}, Index: 1},
		{Name: "Y", Attr: 1, PrefixLens: []int{2}, Index: 2},
	}
}

func TestFamilyKey(t *testing.T) {
	fam := &Family{Name: "X", Attr: 0, PrefixLens: []int{2, 4}, Index: 1}
	e := &entity.Entity{Attrs: []string{"John Lopez"}}
	if got := fam.Key(e, 1); got != "jo" {
		t.Errorf("level 1 key = %q, want jo", got)
	}
	if got := fam.Key(e, 2); got != "john" {
		t.Errorf("level 2 key = %q, want john", got)
	}
	short := &entity.Entity{Attrs: []string{"Al"}}
	if got := fam.Key(short, 2); got != "al" {
		t.Errorf("short value key = %q, want al", got)
	}
	empty := &entity.Entity{Attrs: []string{""}}
	if got := fam.Key(empty, 1); got != "" {
		t.Errorf("empty value key = %q, want empty", got)
	}
}

// TestFamilyKeyMatchesWholeValueLowering holds Key — which lowers only
// the prefix it returns when that prefix is ASCII — and Shallower to
// the definition they replaced: lower (or Soundex-code) the whole
// value, then truncate. Lowering can change byte lengths (İ grows, ẞ
// and invalid UTF-8 change size), so the non-ASCII values are where a
// shortcut would shift a key by a byte.
func TestFamilyKeyMatchesWholeValueLowering(t *testing.T) {
	values := []string{
		"", "a", "Al", "john lopez", "John Lopez", "JOHN LOPEZ", "jOhN", "x1-Y2_z3",
		"İstanbul", "aİb", "abcİ", "İ", "ẞtraße", "STRAẞE", "Ǆungla", "ÀÉÎõü", "naïve Café",
		"\xff", "ab\xffCD", "AB\xc3", "\xc3\x28xyz", "A\u212Aelvin", "ΣΊΣΥΦΟΣ", "日本語テキスト",
	}
	fams := []*Family{
		{Name: "P", Attr: 0, PrefixLens: []int{1, 2, 3, 4, 5, 8, 40}, Index: 1},
		{Name: "S", Attr: 0, PrefixLens: []int{1, 2, 4}, Index: 1, Kind: KeySoundex},
	}
	for _, f := range fams {
		for _, v := range values {
			e := &entity.Entity{Attrs: []string{v}}
			whole := strings.ToLower(v)
			if f.Kind == KeySoundex {
				whole = textsim.SoundexOfFirstWord(v)
			}
			deepest := f.Key(e, f.Levels())
			for level := 1; level <= f.Levels(); level++ {
				want := whole
				if n := f.PrefixLens[level-1]; len(want) > n {
					want = want[:n]
				}
				if got := f.Key(e, level); got != want {
					t.Errorf("%s: Key(%q, %d) = %q, want %q", f.Name, v, level, got, want)
				}
				if got := f.Shallower(deepest, level); got != want {
					t.Errorf("%s: Shallower(%q, %d) = %q, want %q", f.Name, deepest, level, got, want)
				}
			}
		}
	}
}

// BlockID.String names every block in traces and quality telemetry; it
// is built without fmt (one call per resolved block on the Job-2 reduce
// path) and must keep the "F%d.L%d(%s)" form byte for byte.
func TestBlockIDStringForm(t *testing.T) {
	for _, id := range []BlockID{{}, {Family: 2, Level: 3, Key: "jo"}, {Family: 127, Level: 127, Key: "a(b)"}, {Family: -1, Level: -128, Key: "é\xff"}} {
		if got, want := id.String(), fmt.Sprintf("F%d.L%d(%s)", id.Family, id.Level, id.Key); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestFamilyKeyPanicsOutOfRange(t *testing.T) {
	fam := &Family{Name: "X", Attr: 0, PrefixLens: []int{2}, Index: 1}
	defer func() {
		if recover() == nil {
			t.Error("Key(level 2) with 1 level should panic")
		}
	}()
	fam.Key(&entity.Entity{Attrs: []string{"abc"}}, 2)
}

func TestFamiliesValidate(t *testing.T) {
	good := peopleFamilies()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid families rejected: %v", err)
	}
	bad := []Families{
		{},
		{{Name: "", Attr: 0, PrefixLens: []int{2}, Index: 1}},
		{{Name: "X", Attr: -1, PrefixLens: []int{2}, Index: 1}},
		{{Name: "X", Attr: 0, PrefixLens: nil, Index: 1}},
		{{Name: "X", Attr: 0, PrefixLens: []int{2, 2}, Index: 1}},
		{{Name: "X", Attr: 0, PrefixLens: []int{2}, Index: 2}}, // wrong order position
		{
			{Name: "X", Attr: 0, PrefixLens: []int{2}, Index: 1},
			{Name: "X", Attr: 1, PrefixLens: []int{2}, Index: 2}, // dup name
		},
	}
	for i, fs := range bad {
		if err := fs.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestMainKeysAnnotation(t *testing.T) {
	fs := peopleFamilies()
	e := &entity.Entity{Attrs: []string{"John Lopez", "HI"}}
	keys := fs.MainKeys(e)
	if !reflect.DeepEqual(keys, []string{"jo", "hi"}) {
		t.Errorf("MainKeys = %v", keys)
	}
}

func TestBuildTreeNesting(t *testing.T) {
	ds, _ := datagen.People()
	fam := peopleFamilies()[0]
	keys, groups := GroupByMainKey(ds, fam)
	if len(keys) != 5 {
		// jo(e1,e2,e3,e9... wait: Joey→jo too), ch/gh/ma/wi...
		t.Logf("main keys: %v", keys)
	}
	for _, k := range keys {
		tree := BuildTree(fam, 0, k, groups[k])
		// Invariants: root size = group size; child sizes sum to parent
		// size at every node; child keys extend parent key.
		if tree.Root.Size != len(groups[k]) {
			t.Errorf("root %s size %d, want %d", tree.Root.ID, tree.Root.Size, len(groups[k]))
		}
		tree.Root.Walk(func(b *Block) {
			if len(b.Children) == 0 {
				return
			}
			sum := 0
			for _, c := range b.Children {
				sum += c.Size
				if c.Parent != b {
					t.Errorf("child %s parent link broken", c.ID)
				}
				if c.ID.Level != b.ID.Level+1 {
					t.Errorf("child %s level should be %d", c.ID, b.ID.Level+1)
				}
				// Child key must extend (or equal, for short values)
				// the parent key.
				if len(c.ID.Key) >= len(b.ID.Key) {
					if c.ID.Key[:len(b.ID.Key)] != b.ID.Key {
						t.Errorf("child key %q does not extend parent %q", c.ID.Key, b.ID.Key)
					}
				}
			}
			if sum != b.Size {
				t.Errorf("children of %s sum to %d, parent size %d", b.ID, sum, b.Size)
			}
		})
	}
}

func TestBuildTreePeopleStructure(t *testing.T) {
	// The "jo" tree: John Lopez ×3 + Joey Brown. Level 2 (prefix 3)
	// splits joh|joe; level 3 (prefix 5) keeps john |joey .
	ds, _ := datagen.People()
	fam := peopleFamilies()[0]
	_, groups := GroupByMainKey(ds, fam)
	tree := BuildTree(fam, 0, "jo", groups["jo"])
	if tree.Root.Size != 4 {
		t.Fatalf("jo root size = %d, want 4", tree.Root.Size)
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("jo root children = %d, want 2 (joe, joh)", len(tree.Root.Children))
	}
	// Children sorted by key: joe < joh.
	if tree.Root.Children[0].ID.Key != "joe" || tree.Root.Children[1].ID.Key != "joh" {
		t.Errorf("children keys = %s, %s", tree.Root.Children[0].ID.Key, tree.Root.Children[1].ID.Key)
	}
	if tree.Root.Children[1].Size != 3 {
		t.Errorf("joh size = %d, want 3", tree.Root.Children[1].Size)
	}
}

func TestComputeUncovMostDominatingIsZero(t *testing.T) {
	ds, _ := datagen.People()
	fs := peopleFamilies()
	_, groups := GroupByMainKey(ds, fs[0])
	tree := BuildTree(fs[0], 0, "jo", groups["jo"])
	var mainKeys [][]string
	for _, e := range groups["jo"] {
		mainKeys = append(mainKeys, fs.MainKeys(e))
	}
	ComputeUncov(fs[0], tree, groups["jo"], mainKeys)
	tree.Root.Walk(func(b *Block) {
		if b.Uncov != 0 {
			t.Errorf("block %s of dominating family has Uncov %d", b.ID, b.Uncov)
		}
	})
}

func TestComputeUncovDominatedFamily(t *testing.T) {
	// Y blocks on state. Block "hi" = {e0,e1}: both share X-block "jo"
	// → 1 uncovered pair. Block "az" = {e2,e5,e6,e7}: X keys jo, ma,
	// ch, wi — all distinct → 0 uncovered. Block "la" = {e3,e4,e8}:
	// X keys ch, gh, jo → 0 uncovered.
	ds, _ := datagen.People()
	fs := peopleFamilies()
	famY := fs[1]
	_, groups := GroupByMainKey(ds, famY)
	for key, want := range map[string]int64{"hi": 1, "az": 0, "la": 0} {
		ents := groups[key]
		tree := BuildTree(famY, 1, key, ents)
		var mainKeys [][]string
		for _, e := range ents {
			mainKeys = append(mainKeys, fs.MainKeys(e))
		}
		ComputeUncov(famY, tree, ents, mainKeys)
		if tree.Root.Uncov != want {
			t.Errorf("Uncov(Y(%s)) = %d, want %d", key, tree.Root.Uncov, want)
		}
	}
}

func TestUncovInclusionExclusion(t *testing.T) {
	// Three families; block under the 3rd family with members sharing
	// keys in families 1 and 2. Members' (f1,f2) keys:
	//   a: (k1, m1), b: (k1, m1), c: (k1, m2), d: (k9, m2)
	// Pairs sharing f1 key: ab, ac, bc = 3. Sharing f2: ab, cd = 2.
	// Sharing both: ab = 1. Uncov = 3 + 2 − 1 = 4.
	mainKeys := [][]string{
		{"k1", "m1", "z"},
		{"k1", "m1", "z"},
		{"k1", "m2", "z"},
		{"k9", "m2", "z"},
	}
	for name, uncov := range uncovImpls {
		if got := uncov([]int{0, 1, 2, 3}, mainKeys, 2); got != 4 {
			t.Errorf("%s: uncov = %d, want 4", name, got)
		}
	}
}

func TestUncovPairsEdgeCases(t *testing.T) {
	for name, uncov := range uncovImpls {
		if uncov(nil, nil, 2) != 0 {
			t.Errorf("%s: empty members should give 0", name)
		}
		if uncov([]int{0}, [][]string{{"a", "b"}}, 1) != 0 {
			t.Errorf("%s: single member should give 0", name)
		}
		if uncov([]int{0, 1}, [][]string{{"a"}, {"a"}}, 0) != 0 {
			t.Errorf("%s: famIdx 0 should give 0", name)
		}
	}
}

func TestCovUncovPairsProperty(t *testing.T) {
	// Cov + Uncov = Pairs(size) must hold once Cov is derived; here we
	// validate Uncov ≤ Pairs(size) on generated data.
	ds, _ := datagen.Publications(datagen.DefaultPublications(800, 21))
	fs := CiteSeerXFamilies(ds.Schema)
	for famIdx := range fs {
		keys, groups := GroupByMainKey(ds, fs[famIdx])
		for _, k := range keys {
			ents := groups[k]
			tree := BuildTree(fs[famIdx], famIdx, k, ents)
			mainKeys := make([][]string, len(ents))
			for i, e := range ents {
				mainKeys[i] = fs.MainKeys(e)
			}
			ComputeUncov(fs[famIdx], tree, ents, mainKeys)
			tree.Root.Walk(func(b *Block) {
				if b.Uncov < 0 || b.Uncov > entity.Pairs(b.Size) {
					t.Errorf("block %s: Uncov %d outside [0, %d]", b.ID, b.Uncov, entity.Pairs(b.Size))
				}
			})
		}
	}
}

func TestAnnotatedCodecRoundTrip(t *testing.T) {
	e := &entity.Entity{ID: 17, Attrs: []string{"Entity Resolution", "HI"}}
	a := &Annotated{Ent: e, MainKeys: []string{"en", "hi"}}
	buf := EncodeAnnotated(nil, a)
	got, n, err := DecodeAnnotated(buf)
	if err != nil {
		t.Fatalf("DecodeAnnotated: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if !entity.Equal(got.Ent, e) || !reflect.DeepEqual(got.MainKeys, a.MainKeys) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	sameAnnotatedView(t, buf)
	for cut := 0; cut < len(buf); cut++ {
		sameAnnotatedView(t, buf[:cut])
		if _, _, err := DecodeAnnotated(buf[:cut]); err == nil {
			t.Errorf("truncated at %d: want error", cut)
		}
	}
}

func TestStatCodecRoundTrip(t *testing.T) {
	s := &BlockStat{
		ID:        BlockID{Family: 2, Level: 3, Key: "abc"},
		Size:      42,
		Uncov:     17,
		ChildKeys: []string{"abcd", "abce"},
	}
	buf := EncodeStat(nil, s)
	got, n, err := DecodeStat(buf)
	if err != nil {
		t.Fatalf("DecodeStat: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip: %+v vs %+v", got, s)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeStat(buf[:cut]); err == nil {
			t.Errorf("truncated at %d: want error", cut)
		}
	}
}

func TestStatCodecNoChildren(t *testing.T) {
	s := &BlockStat{ID: BlockID{Family: 0, Level: 1, Key: ""}, Size: 1}
	got, _, err := DecodeStat(EncodeStat(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 1 || len(got.ChildKeys) != 0 || got.ID.Key != "" {
		t.Errorf("round trip: %+v", got)
	}
}

func TestJob1KeyRoundTrip(t *testing.T) {
	k := Job1KeyOf(2, "jo|weird")
	fam, key, err := ParseJob1Key(k)
	if err != nil || fam != 2 || key != "jo|weird" {
		t.Errorf("ParseJob1Key = %d,%q,%v", fam, key, err)
	}
	if _, _, err := ParseJob1Key("nokey"); err == nil {
		t.Error("malformed key: want error")
	}
}

func TestRunJob1EndToEnd(t *testing.T) {
	ds, _ := datagen.People()
	fs := peopleFamilies()
	cluster := mapreduce.Cluster{Machines: 2, SlotsPerMachine: 2}
	stats, res, err := RunJob1(ds, fs, cluster, costmodel.Default(), 0)
	if err != nil {
		t.Fatalf("RunJob1: %v", err)
	}
	if res.Counters.Get("job1.entities") != 9 {
		t.Errorf("entities counter = %d", res.Counters.Get("job1.entities"))
	}
	// Trees: X has 6 main keys (jo, ch, gh, ma, wi) — John/Joey share
	// jo → 5 X-trees; Y has 3 states → 3 Y-trees → 8 trees.
	if res.Counters.Get("job1.trees") != 8 {
		t.Errorf("trees counter = %d, want 8", res.Counters.Get("job1.trees"))
	}
	// The X root "jo" must exist with size 4.
	jo := stats.Get(BlockID{Family: 0, Level: 1, Key: "jo"})
	if jo == nil || jo.Size != 4 {
		t.Fatalf("stat for X(jo) = %+v", jo)
	}
	// The Y root "hi" must have Uncov 1 (pair e0,e1 shared with X(jo)).
	hi := stats.Get(BlockID{Family: 1, Level: 1, Key: "hi"})
	if hi == nil || hi.Uncov != 1 {
		t.Fatalf("stat for Y(hi) = %+v", hi)
	}
	// Forest reconstruction round-trips the tree structure.
	trees, err := stats.BuildForests(fs)
	if err != nil {
		t.Fatalf("BuildForests: %v", err)
	}
	if len(trees) != 8 {
		t.Fatalf("forests have %d trees, want 8", len(trees))
	}
	// Deterministic order: family 0 trees first, sorted by key.
	if trees[0].Root.ID.Family != 0 {
		t.Error("first tree should belong to family 0")
	}
	for i := 1; i < len(trees); i++ {
		a, b := trees[i-1].Root.ID, trees[i].Root.ID
		if a.Family > b.Family || (a.Family == b.Family && a.Key >= b.Key) {
			t.Errorf("trees out of order: %s before %s", a, b)
		}
	}
	// Every reconstructed block matches its stat.
	for _, tr := range trees {
		tr.Root.Walk(func(b *Block) {
			s := stats.Get(b.ID)
			if s == nil {
				t.Errorf("no stat for %s", b.ID)
				return
			}
			if b.Size != s.Size || b.Uncov != s.Uncov || len(b.Children) != len(s.ChildKeys) {
				t.Errorf("block %s mismatch with stat", b.ID)
			}
		})
	}
}

func TestRunJob1DeterministicOnGeneratedData(t *testing.T) {
	ds, _ := datagen.Publications(datagen.DefaultPublications(400, 5))
	fs := CiteSeerXFamilies(ds.Schema)
	cluster := mapreduce.Cluster{Machines: 3, SlotsPerMachine: 2}
	stats1, res1, err := RunJob1(ds, fs, cluster, costmodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stats2, res2, err := RunJob1(ds, fs, cluster, costmodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats1.Blocks) != len(stats2.Blocks) {
		t.Error("stat counts differ between runs")
	}
	if res1.End != res2.End {
		t.Error("timelines differ between runs")
	}
	// Total size of root blocks per family = dataset size.
	for famIdx := range fs {
		total := 0
		for id, s := range stats1.Blocks {
			if id.Family == int8(famIdx) && id.Level == 1 {
				total += s.Size
			}
		}
		if total != ds.Len() {
			t.Errorf("family %d root sizes sum to %d, want %d", famIdx, total, ds.Len())
		}
	}
}

func TestBlockIDTreeKey(t *testing.T) {
	fs := peopleFamilies()
	id := BlockID{Family: 0, Level: 3, Key: "johnl"}
	root := id.TreeKey(fs)
	if root.Key != "jo" || root.Level != 1 || root.Family != 0 {
		t.Errorf("TreeKey = %+v", root)
	}
	short := BlockID{Family: 0, Level: 2, Key: "a"}
	if got := short.TreeKey(fs); got.Key != "a" {
		t.Errorf("short TreeKey = %+v", got)
	}
}

func TestWalkAndDescendants(t *testing.T) {
	root := &Block{ID: BlockID{Key: "r"}}
	c1 := &Block{ID: BlockID{Key: "c1"}, Parent: root}
	c2 := &Block{ID: BlockID{Key: "c2"}, Parent: root}
	g := &Block{ID: BlockID{Key: "g"}, Parent: c1}
	root.Children = []*Block{c1, c2}
	c1.Children = []*Block{g}
	var order []string
	root.Walk(func(b *Block) { order = append(order, b.ID.Key) })
	if !reflect.DeepEqual(order, []string{"r", "c1", "g", "c2"}) {
		t.Errorf("walk order = %v", order)
	}
	desc := root.Descendants()
	if len(desc) != 3 {
		t.Errorf("descendants = %d, want 3", len(desc))
	}
	if !root.IsRoot() || root.IsLeaf() || !g.IsLeaf() || g.IsRoot() {
		t.Error("IsRoot/IsLeaf misbehave")
	}
}

func TestSoundexFamilyKeys(t *testing.T) {
	fam := &Family{Name: "S", Attr: 0, PrefixLens: []int{2, 4}, Index: 1, Kind: KeySoundex}
	robert := &entity.Entity{Attrs: []string{"Robert Johnson"}}
	rupert := &entity.Entity{Attrs: []string{"Rupert Smith"}}
	if fam.Key(robert, 2) != "R163" || fam.Key(rupert, 2) != "R163" {
		t.Errorf("soundex keys: %q, %q", fam.Key(robert, 2), fam.Key(rupert, 2))
	}
	if fam.Key(robert, 1) != "R1" {
		t.Errorf("level-1 soundex prefix = %q", fam.Key(robert, 1))
	}
	// Nesting: the level-2 key extends the level-1 key.
	if fam.Key(robert, 2)[:2] != fam.Key(robert, 1) {
		t.Error("soundex levels do not nest")
	}
	if KeySoundex.String() != "soundex" || KeyPrefix.String() != "prefix" {
		t.Error("KeyKind strings")
	}
}

func TestSoundexFamilyPipelineBuildTree(t *testing.T) {
	ds := entity.NewDataset(entity.MustSchema("name"))
	for _, n := range []string{"Robert Alpha", "Rupert Beta", "Lee Gamma", "Leigh Delta"} {
		ds.Append(n)
	}
	fam := &Family{Name: "S", Attr: 0, PrefixLens: []int{1, 4}, Index: 1, Kind: KeySoundex}
	keys, groups := GroupByMainKey(ds, fam)
	// Robert/Rupert → R…; Lee/Leigh → L…
	if len(keys) != 2 {
		t.Fatalf("main keys = %v", keys)
	}
	tree := BuildTree(fam, 0, "R", groups["R"])
	if tree.Root.Size != 2 {
		t.Errorf("R tree size = %d", tree.Root.Size)
	}
}

// TestParseJob1OutputRoundTrip: the statistics Job 1 emits (one
// EncodeStat record per block) parse back into the index they came
// from, and that index rebuilds the same forests.
func TestParseJob1OutputRoundTrip(t *testing.T) {
	ds, _ := datagen.Publications(datagen.DefaultPublications(400, 9))
	fs := CiteSeerXFamilies(ds.Schema)
	cluster := mapreduce.Cluster{Machines: 2, SlotsPerMachine: 2}
	stats, _, err := RunJob1(ds, fs, cluster, costmodel.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &mapreduce.Result{}
	for _, s := range stats.Blocks {
		res.Output = append(res.Output, mapreduce.TimedKV{KeyValue: mapreduce.KeyValue{Key: s.ID.String(), Value: EncodeStat(nil, s)}})
	}
	back, err := ParseJob1Output(res)
	if err != nil {
		t.Fatalf("ParseJob1Output: %v", err)
	}
	if len(back.Blocks) != len(stats.Blocks) {
		t.Fatalf("blocks = %d, want %d", len(back.Blocks), len(stats.Blocks))
	}
	for id, s := range stats.Blocks {
		b := back.Get(id)
		if b == nil || b.Size != s.Size || b.Uncov != s.Uncov || len(b.ChildKeys) != len(s.ChildKeys) {
			t.Fatalf("stat %s differs after round trip", id)
		}
	}
	t1, err := stats.BuildForests(fs)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := back.BuildForests(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Errorf("forest sizes differ: %d vs %d", len(t1), len(t2))
	}
}

func TestParseJob1OutputErrors(t *testing.T) {
	truncated := &mapreduce.Result{Output: []mapreduce.TimedKV{{KeyValue: mapreduce.KeyValue{Value: []byte("\x05ab")}}}}
	if _, err := ParseJob1Output(truncated); err == nil {
		t.Error("truncated record: want error")
	}
	st, err := ParseJob1Output(&mapreduce.Result{})
	if err != nil || len(st.Blocks) != 0 {
		t.Errorf("empty output: %v, %d blocks", err, len(st.Blocks))
	}
}
