package sched

import (
	"testing"

	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/estimate"
)

// buildForest creates estimated trees from a generated dataset.
func buildForest(t *testing.T, n int, seed int64) ([]*blocking.Tree, *estimate.Estimator) {
	t.Helper()
	ds, gt := datagen.Publications(datagen.DefaultPublications(n, seed))
	fams := blocking.CiteSeerXFamilies(ds.Schema)
	model := estimate.Train(ds, gt, fams)
	est := estimate.NewEstimator(estimate.CiteSeerXPolicy(), costmodel.Default(), model, ds.Len())
	var trees []*blocking.Tree
	for famIdx, fam := range fams {
		keys, groups := blocking.GroupByMainKey(ds, fam)
		for _, k := range keys {
			ents := groups[k]
			tree := blocking.BuildTree(fam, famIdx, k, ents)
			mainKeys := make([][]string, len(ents))
			for i, e := range ents {
				mainKeys[i] = fams.MainKeys(e)
			}
			blocking.ComputeUncov(fam, tree, ents, mainKeys)
			trees = append(trees, tree)
		}
	}
	trees = estimate.Prune(trees)
	for _, tr := range trees {
		est.EstimateTree(tr)
	}
	return trees, est
}

func defaultConfig(trees []*blocking.Tree, est *estimate.Estimator, r int, kind Kind) Config {
	cv := AutoCostVector(trees, r, 10)
	return Config{
		R:          r,
		CostVector: cv,
		Weights:    LinearWeights(len(cv)),
		Estimator:  est,
		Kind:       kind,
	}
}

func TestSQHelpers(t *testing.T) {
	sq := SQFor(3, 42)
	if TaskOfSQ(sq) != 3 {
		t.Errorf("TaskOfSQ = %d", TaskOfSQ(sq))
	}
	key := SQKey(sq)
	if len(key) != 18 {
		t.Errorf("key %q not fixed-width", key)
	}
	back, err := ParseSQKey(key)
	if err != nil || back != sq {
		t.Errorf("ParseSQKey = %d, %v", back, err)
	}
	// Lexicographic order equals numeric order.
	if !(SQKey(SQFor(0, 5)) < SQKey(SQFor(0, 40))) {
		t.Error("key order broken within task")
	}
	if !(SQKey(SQFor(1, 999)) < SQKey(SQFor(2, 0))) {
		t.Error("key order broken across tasks")
	}
	if _, err := ParseSQKey("notanumber"); err == nil {
		t.Error("bad key should error")
	}
}

func TestAutoCostVectorAndWeights(t *testing.T) {
	trees, _ := buildForest(t, 600, 3)
	cv := AutoCostVector(trees, 4, 10)
	if len(cv) != 10 {
		t.Fatalf("len = %d", len(cv))
	}
	for i := 1; i < len(cv); i++ {
		if cv[i] <= cv[i-1] {
			t.Fatalf("cost vector not increasing at %d: %v", i, cv)
		}
	}
	w := LinearWeights(10)
	if w[0] != 1.0 {
		t.Errorf("first weight = %v", w[0])
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] || w[i] <= 0 {
			t.Errorf("weights not strictly decreasing positive: %v", w)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	trees, est := buildForest(t, 300, 7)
	good := defaultConfig(trees, est, 2, Ours)
	bad := []func(*Config){
		func(c *Config) { c.R = 0 },
		func(c *Config) { c.CostVector = nil },
		func(c *Config) { c.CostVector = []costmodel.Units{5, 5} },
		func(c *Config) { c.CostVector = []costmodel.Units{5, 3} },
		func(c *Config) { c.Weights = c.Weights[:2] },
		func(c *Config) { c.Weights = []float64{0.1, 0.5, 1, 1, 1, 1, 1, 1, 1, 1} },
		func(c *Config) { c.Estimator = nil },
	}
	for i, mutate := range bad {
		cfg := good
		cfg.CostVector = append([]costmodel.Units{}, good.CostVector...)
		cfg.Weights = append([]float64{}, good.Weights...)
		mutate(&cfg)
		if _, err := Generate(trees, cfg); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// checkScheduleInvariants verifies the structural properties every
// progressive schedule must satisfy.
func checkScheduleInvariants(t *testing.T, s *Schedule, wantBlocks int) {
	t.Helper()
	// Every block scheduled exactly once, with a consistent SQ.
	seen := map[blocking.BlockID]bool{}
	total := 0
	for task, blocks := range s.TaskBlocks {
		pos := map[*blocking.Block]int{}
		for i, b := range blocks {
			total++
			if seen[b.ID] {
				t.Errorf("block %s scheduled twice", b.ID)
			}
			seen[b.ID] = true
			if TaskOfSQ(b.SQ) != task {
				t.Errorf("block %s SQ %d routes to task %d, scheduled on %d", b.ID, b.SQ, TaskOfSQ(b.SQ), task)
			}
			if got := s.Block(b.SQ); got != b {
				t.Errorf("Block(SQ) lookup broken for %s", b.ID)
			}
			pos[b] = i
		}
		// Bottom-up: every child of a scheduled parent appears earlier.
		for i, b := range blocks {
			for _, c := range b.Children {
				if j, ok := pos[c]; ok && j >= i {
					t.Errorf("task %d: child %s at %d not before parent %s at %d", task, c.ID, j, b.ID, i)
				}
			}
		}
	}
	if wantBlocks > 0 && total != wantBlocks {
		t.Errorf("scheduled %d blocks, want %d", total, wantBlocks)
	}
	// Whole tree on a single task.
	for i, tree := range s.Trees {
		task := s.TaskOfTree[i]
		for _, b := range tree.Blocks() {
			if TaskOfSQ(b.SQ) != task {
				t.Errorf("tree %s spans tasks: block %s on %d, tree on %d", tree, b.ID, TaskOfSQ(b.SQ), task)
			}
		}
		if tree.Dom != int32(i) {
			t.Errorf("tree %d has Dom %d", i, tree.Dom)
		}
	}
	// All tree roots are full resolves.
	for _, tree := range s.Trees {
		if !tree.Root.FullResolve {
			t.Errorf("tree %s root not marked FullResolve", tree)
		}
	}
}

func TestGenerateOursInvariants(t *testing.T) {
	trees, est := buildForest(t, 1000, 11)
	preBlocks := 0
	for _, tr := range trees {
		preBlocks += len(tr.Blocks())
	}
	s, err := Generate(trees, defaultConfig(trees, est, 4, Ours))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkScheduleInvariants(t, s, preBlocks) // splits move blocks, never drop them
	if len(s.Trees) < len(trees) {
		t.Error("splitting cannot reduce the tree count")
	}
}

func TestGenerateNoSplitKeepsTrees(t *testing.T) {
	trees, est := buildForest(t, 1000, 11)
	n := len(trees)
	s, err := Generate(trees, defaultConfig(trees, est, 4, NoSplit))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trees) != n {
		t.Errorf("NoSplit changed tree count: %d → %d", n, len(s.Trees))
	}
	checkScheduleInvariants(t, s, 0)
}

func TestGenerateLPTBalancesLoad(t *testing.T) {
	trees, est := buildForest(t, 1000, 13)
	r := 4
	s, err := Generate(trees, defaultConfig(trees, est, r, LPT))
	if err != nil {
		t.Fatal(err)
	}
	checkScheduleInvariants(t, s, 0)
	// LPT guarantee: max load ≤ (4/3 − 1/(3r)) · optimal ≤ ~4/3 · avg·r/r…
	// We check the weaker property: no task has more than ~2× the
	// average load (LPT is near-balanced).
	loads := make([]costmodel.Units, r)
	for task, blocks := range s.TaskBlocks {
		for _, b := range blocks {
			loads[task] += b.CostEst
		}
	}
	var total, max costmodel.Units
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	avg := total / costmodel.Units(r)
	if max > 2*avg {
		t.Errorf("LPT badly unbalanced: max %v vs avg %v", max, avg)
	}
}

func TestOursSplitsLargeSkewedTrees(t *testing.T) {
	// With heavily skewed data and several reduce tasks, at least one
	// tree should get split (that is the entire point of the machinery).
	trees, est := buildForest(t, 2000, 17)
	n := len(trees)
	s, err := Generate(trees, defaultConfig(trees, est, 8, Ours))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trees) == n {
		t.Error("no tree was split on skewed data — splitting machinery inert")
	}
	// Split subtree roots must be full resolves with Frac 1.
	for _, tree := range s.Trees {
		if tree.Root.ID.Level > 1 {
			if !tree.Root.FullResolve || tree.Root.Frac != 1 {
				t.Errorf("split root %s not a full resolve", tree.Root.ID)
			}
		}
	}
}

func TestBlockScheduleUtilityOrderWhenUnconstrained(t *testing.T) {
	// Blocks with no parent/child relation must appear in utility order.
	trees, est := buildForest(t, 800, 19)
	s, err := Generate(trees, defaultConfig(trees, est, 2, NoSplit))
	if err != nil {
		t.Fatal(err)
	}
	for task, blocks := range s.TaskBlocks {
		for i := 1; i < len(blocks); i++ {
			prev, cur := blocks[i-1], blocks[i]
			// If cur has higher utility than prev, the only excuse is a
			// dependency: prev must be a descendant of cur.
			if cur.Util > prev.Util {
				isDesc := false
				for p := prev; p != nil; p = p.Parent {
					if p == cur {
						isDesc = true
						break
					}
				}
				_ = isDesc
				ok := false
				for _, d := range cur.Descendants() {
					if d == prev {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("task %d: block %s (util %v) before higher-utility %s (util %v) without dependency",
						task, prev.ID, prev.Util, cur.ID, cur.Util)
				}
			}
		}
	}
}

func TestOrderBottomUpByUtility(t *testing.T) {
	// Parent with huge utility must still come after its children.
	parent := &blocking.Block{ID: blocking.BlockID{Level: 1, Key: "p"}, Util: 100}
	c1 := &blocking.Block{ID: blocking.BlockID{Level: 2, Key: "pa"}, Util: 1, Parent: parent}
	c2 := &blocking.Block{ID: blocking.BlockID{Level: 2, Key: "pb"}, Util: 50, Parent: parent}
	parent.Children = []*blocking.Block{c1, c2}
	out := orderBottomUpByUtility([]*blocking.Block{parent, c1, c2})
	if out[0] != c2 || out[1] != c1 || out[2] != parent {
		t.Errorf("order = %v, %v, %v", out[0].ID, out[1].ID, out[2].ID)
	}
}

func TestPartitionBySlackSpreadsBeneficialTrees(t *testing.T) {
	trees, est := buildForest(t, 1500, 23)
	r := 4
	s, err := Generate(trees, defaultConfig(trees, est, r, Ours))
	if err != nil {
		t.Fatal(err)
	}
	// Early high-utility work should exist on every task: compare the
	// estimated duplicates in each task's first-quarter schedule.
	dupIn := make([]float64, r)
	for task, blocks := range s.TaskBlocks {
		quarter := len(blocks) / 4
		if quarter == 0 {
			quarter = len(blocks)
		}
		for _, b := range blocks[:quarter] {
			dupIn[task] += b.DupEst
		}
	}
	nonZero := 0
	for _, d := range dupIn {
		if d > 0 {
			nonZero++
		}
	}
	if nonZero < r {
		t.Errorf("only %d/%d tasks have early duplicate work: %v", nonZero, r, dupIn)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	mk := func() *Schedule {
		trees, est := buildForest(t, 700, 29)
		s, err := Generate(trees, defaultConfig(trees, est, 3, Ours))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	if len(a.Trees) != len(b.Trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(a.Trees), len(b.Trees))
	}
	for i := range a.Trees {
		if a.Trees[i].Root.ID != b.Trees[i].Root.ID {
			t.Fatalf("tree %d differs: %s vs %s", i, a.Trees[i].Root.ID, b.Trees[i].Root.ID)
		}
		if a.TaskOfTree[i] != b.TaskOfTree[i] {
			t.Fatalf("tree %d task differs", i)
		}
	}
	for task := range a.TaskBlocks {
		if len(a.TaskBlocks[task]) != len(b.TaskBlocks[task]) {
			t.Fatalf("task %d block counts differ", task)
		}
		for i := range a.TaskBlocks[task] {
			if a.TaskBlocks[task][i].ID != b.TaskBlocks[task][i].ID {
				t.Fatalf("task %d pos %d differs", task, i)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Ours.String() != "ours" || NoSplit.String() != "nosplit" || LPT.String() != "lpt" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestScheduleBlockLookupOutOfRange(t *testing.T) {
	trees, est := buildForest(t, 300, 31)
	s, err := Generate(trees, defaultConfig(trees, est, 2, NoSplit))
	if err != nil {
		t.Fatal(err)
	}
	if s.Block(SQFor(99, 0)) != nil {
		t.Error("out-of-range task should yield nil")
	}
	if s.Block(SQFor(0, 1<<30)) != nil {
		t.Error("out-of-range position should yield nil")
	}
	if s.NumBlocks() == 0 {
		t.Error("schedule has no blocks")
	}
}

// TestGenerateWithLiteralVectorAndWeights: Config accepts any strictly
// increasing cost vector and non-increasing weights, not only the
// pipeline's AutoCostVector and LinearWeights — here equal intervals
// of a 1000-unit per-task share, every bucket weighted 1.
func TestGenerateWithLiteralVectorAndWeights(t *testing.T) {
	trees, est := buildForest(t, 500, 37)
	s, err := Generate(trees, Config{
		R:          2,
		CostVector: []costmodel.Units{250, 500, 750, 1000},
		Weights:    []float64{1, 1, 1, 1},
		Estimator:  est,
		Kind:       Ours,
	})
	if err != nil {
		t.Fatalf("Generate with a literal vector: %v", err)
	}
	checkScheduleInvariants(t, s, 0)
}

func TestSplitLoopTerminatesOnUnsplittableTrees(t *testing.T) {
	// A single huge childless block always overflows but cannot be
	// split; the loop must mark it unsplittable and stop.
	root := &blocking.Block{
		ID: blocking.BlockID{Family: 0, Level: 1, Key: "xx"}, Size: 1000,
	}
	tree := &blocking.Tree{Root: root}
	est := estimate.NewEstimator(estimate.CiteSeerXPolicy(), costmodel.Default(), estimate.DefaultModel{}, 1000)
	est.EstimateTree(tree)
	s, err := Generate([]*blocking.Tree{tree}, Config{
		R:          2,
		CostVector: []costmodel.Units{10, 20}, // far below the tree's cost
		Weights:    []float64{1, 0.5},
		Estimator:  est,
		Kind:       Ours,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(s.Trees) != 1 || len(s.TaskBlocks[s.TaskOfTree[0]]) != 1 {
		t.Errorf("unsplittable tree mangled: %d trees", len(s.Trees))
	}
}

func TestGenerateSingleTask(t *testing.T) {
	trees, est := buildForest(t, 400, 41)
	s, err := Generate(trees, defaultConfig(trees, est, 1, Ours))
	if err != nil {
		t.Fatal(err)
	}
	checkScheduleInvariants(t, s, 0)
	if len(s.TaskBlocks) != 1 {
		t.Errorf("task blocks = %d", len(s.TaskBlocks))
	}
}

func TestBlockIndexLookup(t *testing.T) {
	var x BlockIndex
	if x.Lookup(0, 1, []byte("a")) != nil {
		t.Error("empty index: want nil")
	}
	blocks := []*blocking.Block{
		{ID: blocking.BlockID{Family: 2, Level: 2, Key: "ab"}},
		{ID: blocking.BlockID{Family: 0, Level: 1, Key: ""}},
		{ID: blocking.BlockID{Family: 2, Level: 1, Key: "ab"}},
	}
	for _, b := range blocks {
		x.Add(b)
	}
	for _, b := range blocks {
		if got := x.Lookup(int(b.ID.Family), int(b.ID.Level), []byte(b.ID.Key)); got != b {
			t.Errorf("Lookup(%s) = %v", b.ID, got)
		}
	}
	for _, miss := range []blocking.BlockID{
		{Family: 1, Level: 1, Key: "ab"}, {Family: 2, Level: 3, Key: "ab"}, {Family: 3, Level: 1, Key: ""}, {Family: 2, Level: 2, Key: "a"},
	} {
		if got := x.Lookup(int(miss.Family), int(miss.Level), []byte(miss.Key)); got != nil {
			t.Errorf("Lookup(%s) = %v, want nil", miss, got.ID)
		}
	}
}
