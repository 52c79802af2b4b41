package core_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"proger/internal/blocking"
	"proger/internal/core"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/experiments"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// oracle is what resolving a dataset means by definition, with no
// MapReduce, no schedule and no dominance lists:
//
//   - a family's blocks are the entities that share their level-l key
//     inside one main block;
//   - a pair belongs to the tree of the most dominating family (≻_F)
//     that puts both entities into one main block (PAPER.md §1 step 2);
//   - in every block of its tree, the mechanism's window reaches the
//     pairs fewer than window positions apart in the block's order by
//     lowercased blocking attribute, then ID: the sorted-window
//     enumeration of Kolb et al. (arXiv 1010.3053).
type oracle struct {
	// reach holds every pair the window reaches in the tree responsible
	// for it, and whether the matcher calls it a duplicate.
	reach map[entity.Pair]bool
	// owned is, for every block of two or more entities, how many of its
	// pairs its tree is responsible for: the block's Cov.
	owned map[blocking.BlockID]int64
}

func newOracle(ents []*entity.Entity, fams blocking.Families, m *match.Matcher, window int) *oracle {
	mainKeys := map[entity.ID][]string{}
	for _, e := range ents {
		mainKeys[e.ID] = fams.MainKeys(e)
	}
	owner := func(a, b *entity.Entity) int {
		for f := range fams {
			if mainKeys[a.ID][f] == mainKeys[b.ID][f] {
				return f
			}
		}
		return -1
	}
	o := &oracle{reach: map[entity.Pair]bool{}, owned: map[blocking.BlockID]int64{}}
	for f, fam := range fams {
		blocks := map[blocking.BlockID][]*entity.Entity{}
		for _, e := range ents {
			for l := 1; l <= fam.Levels(); l++ {
				id := blocking.BlockID{Family: int8(f), Level: int8(l), Key: fam.Key(e, l)}
				blocks[id] = append(blocks[id], e)
			}
		}
		for id, members := range blocks {
			if len(members) < 2 {
				continue
			}
			slices.SortFunc(members, func(a, b *entity.Entity) int {
				return cmp.Or(strings.Compare(strings.ToLower(a.Attr(fam.Attr)), strings.ToLower(b.Attr(fam.Attr))), cmp.Compare(a.ID, b.ID))
			})
			o.owned[id] = 0
			for i, a := range members {
				for j := i + 1; j < len(members); j++ {
					b := members[j]
					if owner(a, b) != f {
						continue
					}
					o.owned[id]++
					if p := entity.MakePair(a.ID, b.ID); j-i < window {
						if _, seen := o.reach[p]; !seen {
							o.reach[p] = m.Match(a, b)
						}
					}
				}
			}
		}
	}
	return o
}

// dups is the set of reached pairs the matcher calls duplicates.
func (o *oracle) dups() entity.PairSet {
	s := entity.PairSet{}
	for p, dup := range o.reach {
		if dup {
			s.Add(p)
		}
	}
	return s
}

// fullResolution is a policy under which no block is cut short: every
// window spans its block and no Th(X) is ever reached.
var fullResolution = estimate.Policy{WindowRoot: 1 << 20, WindowMid: 1 << 20, WindowLeaf: 1 << 20, FracLeaf: 1, FracMid: 1, ThFactor: 1 << 20}

// oracleCase is one seeded input: a catalogue workload's dataset of at
// most 300 entities, its families truncated to 1–3 families of 1–3
// levels, SN or PSNM, our scheduler or NoSplit, and a small cluster.
type oracleCase struct {
	workload string
	ds       *entity.Dataset
	opts     core.Options
}

func newOracleCase(t testing.TB, seed int64) oracleCase {
	rng := rand.New(rand.NewSource(seed))
	name := []string{"publications", "books", "persons-exact"}[rng.Intn(3)]
	w, err := experiments.Generate(name, 40+rng.Intn(241), seed)
	if err != nil {
		t.Fatal(err)
	}
	if w.DS.Len() > 300 {
		t.Fatalf("%s: %d entities, the oracle's inputs hold at most 300", name, w.DS.Len())
	}
	fams := make(blocking.Families, 1+rng.Intn(len(w.Fams)))
	for i := range fams {
		f := *w.Fams[i]
		f.PrefixLens = f.PrefixLens[:1+rng.Intn(len(f.PrefixLens))]
		fams[i] = &f
	}
	return oracleCase{workload: name, ds: w.DS, opts: core.Options{
		Families:        fams,
		Matcher:         w.Matcher,
		Mechanism:       []mechanism.Mechanism{mechanism.SN{}, mechanism.PSNM{}}[rng.Intn(2)],
		Policy:          w.Policy,
		Machines:        1 + rng.Intn(4),
		SlotsPerMachine: 1 + rng.Intn(3),
		Scheduler:       []sched.Kind{sched.Ours, sched.NoSplit}[rng.Intn(2)],
	}}
}

func resolveCase(t testing.TB, ds *entity.Dataset, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Resolve(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// oracleReport is what checkOracle saw of a case beyond pass or fail:
// whether the schedule split a tree and how many pairs were reached.
type oracleReport struct {
	split bool
	pairs int
}

// checkOracle holds one case's runs to the oracle:
//
//	(a) Result.Duplicates ⊆ the oracle's duplicates, and equal to them
//	    under full resolution;
//	(b) under full resolution, CounterJob2Compared is the number of
//	    distinct reached pairs: a pair compared twice, in one task or
//	    two, or not at all, breaks it;
//	(c) every reduce task resolves a block's children before it, and a
//	    tree in one task;
//	(d) every block's Cov from the Job-1 statistics, Pairs(|X|) − Uncov,
//	    is the oracle's count of the block's pairs its tree owns;
//	(e) permuting the input and renaming IDs in an order-preserving way
//	    never change the duplicate set, and neither does the cluster's
//	    Machines × Slots under full resolution or without tree
//	    splitting.
func checkOracle(t testing.TB, c oracleCase) oracleReport {
	t.Helper()
	fams, m := c.opts.Families, c.opts.Matcher
	full := c.opts
	full.Policy = fullResolution
	fullRes := resolveCase(t, c.ds, full)
	o := newOracle(c.ds.Entities, fams, m, c.ds.Len())
	if got, want := fullRes.Duplicates, o.dups(); !samePairs(got, want) {
		t.Errorf("(a) full resolution found %d duplicates, the oracle %d (%d missing, %d extra)",
			len(got), len(want), len(minus(want, got)), len(minus(got, want)))
	}
	if got := fullRes.Counters[core.CounterJob2Compared]; got != int64(len(o.reach)) {
		t.Errorf("(b) full resolution compared %d pairs, the oracle reaches %d distinct pairs", got, len(o.reach))
	}
	checkCov(t, fullRes, fams, o)

	partialRes := resolveCase(t, c.ds, c.opts)
	po := newOracle(c.ds.Entities, fams, m, c.opts.Policy.WindowRoot)
	if extra := minus(partialRes.Duplicates, po.dups()); len(extra) > 0 {
		t.Errorf("(a) %d of %d duplicates are pairs no window of their tree reaches, e.g. %v",
			len(extra), len(partialRes.Duplicates), extra[0])
	}
	split := false
	for _, res := range []*core.Result{fullRes, partialRes} {
		split = checkBlockOrder(t, res.Schedule) || split
	}

	// (e): the same pairs under another input order and other IDs.
	perm := slices.Clone(c.ds.Entities)
	rand.New(rand.NewSource(int64(len(perm)))).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	permuted := &entity.Dataset{Schema: c.ds.Schema, Entities: perm}
	if got := resolveCase(t, permuted, c.opts).Duplicates; !samePairs(got, partialRes.Duplicates) {
		t.Errorf("(e) permuting the input changed the duplicates: %d, was %d", len(got), len(partialRes.Duplicates))
	}
	renamed := &entity.Dataset{Schema: c.ds.Schema}
	for _, e := range c.ds.Entities {
		renamed.Entities = append(renamed.Entities, &entity.Entity{ID: 3*e.ID + 7, Attrs: e.Attrs})
	}
	back := entity.PairSet{}
	for p := range resolveCase(t, renamed, c.opts).Duplicates {
		back.Add(entity.MakePair((p.Lo-7)/3, (p.Hi-7)/3))
	}
	if !samePairs(back, partialRes.Duplicates) {
		t.Errorf("(e) renaming IDs changed the duplicates: %d, was %d", len(back), len(partialRes.Duplicates))
	}
	// Our scheduler's tree splitting depends on the cluster, and a
	// split-off subtree is resolved fully, so a partial resolution keeps
	// its duplicates across clusters only without splitting.
	reshape := func(opts core.Options, want entity.PairSet) {
		o := opts
		o.Machines, o.SlotsPerMachine = 7-o.Machines, 4-o.SlotsPerMachine
		if got := resolveCase(t, c.ds, o).Duplicates; !samePairs(got, want) {
			t.Errorf("(e) %d×%d slots found %d duplicates, %d×%d found %d", o.Machines, o.SlotsPerMachine, len(got),
				opts.Machines, opts.SlotsPerMachine, len(want))
		}
	}
	reshape(full, fullRes.Duplicates)
	if c.opts.Scheduler == sched.NoSplit {
		reshape(c.opts, partialRes.Duplicates)
	}
	return oracleReport{split: split, pairs: len(o.reach)}
}

// checkCov is property (d).
func checkCov(t testing.TB, res *core.Result, fams blocking.Families, o *oracle) {
	t.Helper()
	stats, err := blocking.ParseJob1Output(res.Job1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for id, s := range stats.Blocks {
		if s.Size < 2 {
			continue
		}
		blocks++
		want, ok := o.owned[id]
		if cov := entity.Pairs(s.Size) - s.Uncov; !ok || cov != want {
			t.Errorf("(d) block %s of %d entities: Cov %d, the oracle's tree owns %d of its pairs (block known: %v)",
				id, s.Size, cov, want, ok)
		}
	}
	if blocks != len(o.owned) {
		t.Errorf("(d) Job 1 has %d blocks of two or more entities, the oracle %d", blocks, len(o.owned))
	}
}

// checkBlockOrder is property (c). It reports whether the schedule split
// a tree (a split-off subtree is a tree whose root is not a main block).
func checkBlockOrder(t testing.TB, s *sched.Schedule) (split bool) {
	t.Helper()
	task, pos := map[*blocking.Block]int{}, map[*blocking.Block]int{}
	for r, blocks := range s.TaskBlocks {
		for i, b := range blocks {
			task[b], pos[b] = r, i
		}
	}
	for _, tree := range s.Trees {
		split = split || tree.Root.ID.Level > 1
	}
	for b := range task {
		if p := b.Parent; p != nil && (task[p] != task[b] || pos[p] < pos[b]) {
			t.Errorf("(c) block %s is resolved at task %d position %d, its parent %s at task %d position %d",
				b.ID, task[b], pos[b], p.ID, task[p], pos[p])
		}
	}
	return split
}

func samePairs(a, b entity.PairSet) bool {
	return len(a) == len(b) && len(minus(a, b)) == 0
}

// minus lists the pairs of a that are not in b, in order.
func minus(a, b entity.PairSet) []entity.Pair {
	var out []entity.Pair
	for p := range a {
		if _, ok := b[p]; !ok {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(x, y entity.Pair) int { return cmp.Or(cmp.Compare(x.Lo, y.Lo), cmp.Compare(x.Hi, y.Hi)) })
	return out
}

// oracleSeeds are the cases tier-1 runs (scripts/check.sh runs them
// under -race too). Together they split trees, so the split-off half of
// SHOULD-RESOLVE is exercised.
var oracleSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}

// TestOracle holds whole Resolve runs on small seeded inputs to a
// reference resolver written from the paper's definitions (checkOracle
// lists the properties).
func TestOracle(t *testing.T) {
	splits := 0
	for _, seed := range oracleSeeds {
		c := newOracleCase(t, seed)
		var rep oracleReport
		t.Run(fmt.Sprintf("seed=%d/%s", seed, c.workload), func(t *testing.T) {
			rep = checkOracle(t, c)
			t.Logf("seed %d: %d entities, %d families, %s, scheduler %d, %d×%d: %d pairs reached, split %v",
				seed, c.ds.Len(), len(c.opts.Families), c.opts.Mechanism.Name(), c.opts.Scheduler,
				c.opts.Machines, c.opts.SlotsPerMachine, rep.pairs, rep.split)
		})
		if rep.split {
			splits++
		}
	}
	if splits == 0 {
		t.Error("no case split a tree: the split-off check of SHOULD-RESOLVE goes untested")
	}
}

// FuzzOracle holds Resolve to the reference resolver (checkOracle's
// properties (a)–(e)) on the input newOracleCase generates from a seed.
func FuzzOracle(f *testing.F) {
	for _, seed := range oracleSeeds[:4] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkOracle(t, newOracleCase(t, seed))
	})
}
