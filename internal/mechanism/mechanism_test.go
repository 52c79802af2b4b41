package mechanism

import (
	"fmt"
	"reflect"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/entity"
)

// testEnv builds an Env with an oracle matcher (dups decides truth) and
// records emissions and charges.
type testEnv struct {
	env     *Env
	emitted []string // "lo-hi:dup" strings in emission order
	pairs   []entity.Pair
	charged costmodel.Units
}

func newTestEnv(dups entity.PairSet) *testEnv {
	te := &testEnv{}
	te.env = &Env{
		SortAttr: 0,
		Match: func(a, b *entity.Entity) bool {
			return dups.Has(entity.MakePair(a.ID, b.ID))
		},
		Emit: func(p entity.Pair, isDup bool) {
			te.emitted = append(te.emitted, fmt.Sprintf("%d-%d:%v", p.Lo, p.Hi, isDup))
			te.pairs = append(te.pairs, p)
		},
		Charge: func(u costmodel.Units) { te.charged += u },
		Cost:   costmodel.Default(),
	}
	return te
}

// block builds entities whose sort attribute equals their label, so the
// sorted order is the label order.
func block(labels ...string) []*entity.Entity {
	ents := make([]*entity.Entity, len(labels))
	for i, l := range labels {
		ents[i] = &entity.Entity{ID: entity.ID(i), Attrs: []string{l}}
	}
	return ents
}

func TestSNDistanceOrder(t *testing.T) {
	// Labels already sorted; entities are e0<e1<e2<e3 in sort order.
	te := newTestEnv(entity.PairSet{})
	st := SN{}.ResolveBlock(te.env, block("a", "b", "c", "d"), 10)
	want := []entity.Pair{
		entity.MakePair(0, 1), entity.MakePair(1, 2), entity.MakePair(2, 3), // d=1
		entity.MakePair(0, 2), entity.MakePair(1, 3), // d=2
		entity.MakePair(0, 3), // d=3
	}
	if !reflect.DeepEqual(te.pairs, want) {
		t.Errorf("pair order = %v, want %v", te.pairs, want)
	}
	if st.Compared != 6 || st.Dups != 0 || st.Distinct != 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSNRespectsSortNotID(t *testing.T) {
	// e0 sorts last: sorted order is e2(a), e1(b), e0(z).
	te := newTestEnv(entity.PairSet{})
	ents := []*entity.Entity{
		{ID: 0, Attrs: []string{"z"}},
		{ID: 1, Attrs: []string{"b"}},
		{ID: 2, Attrs: []string{"a"}},
	}
	SN{}.ResolveBlock(te.env, ents, 10)
	want := []entity.Pair{
		entity.MakePair(2, 1), entity.MakePair(1, 0), // d=1
		entity.MakePair(2, 0), // d=2
	}
	if !reflect.DeepEqual(te.pairs, want) {
		t.Errorf("pair order = %v, want %v", te.pairs, want)
	}
}

func TestSNWindowLimits(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	SN{}.ResolveBlock(te.env, block("a", "b", "c", "d", "e"), 3)
	// Window 3 → distances 1 and 2 only: 4 + 3 = 7 pairs.
	if len(te.pairs) != 7 {
		t.Errorf("compared %d pairs, want 7", len(te.pairs))
	}
	for _, p := range te.pairs {
		if p.Hi-p.Lo > 2 {
			t.Errorf("pair %v exceeds window distance", p)
		}
	}
}

func TestSNFullCoverage(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	n := 6
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("%c", 'a'+i)
	}
	SN{}.ResolveBlock(te.env, block(labels...), n)
	if int64(len(te.pairs)) != entity.Pairs(n) {
		t.Errorf("window ≥ n should compare all %d pairs, got %d", entity.Pairs(n), len(te.pairs))
	}
	seen := entity.PairSet{}
	for _, p := range te.pairs {
		if !seen.Add(p) {
			t.Errorf("pair %v compared twice", p)
		}
	}
}

func TestSNTinyBlocks(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	if st := (SN{}).ResolveBlock(te.env, nil, 5); st.Compared != 0 {
		t.Error("empty block should compare nothing")
	}
	if st := (SN{}).ResolveBlock(te.env, block("a"), 5); st.Compared != 0 {
		t.Error("singleton block should compare nothing")
	}
	if st := (SN{}).ResolveBlock(te.env, block("a", "b"), 0); st.Compared != 1 {
		t.Error("window < 2 should still compare adjacent pairs")
	}
}

func TestDistinctThresholdStops(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	te.env.Stop = DistinctThreshold(3)
	st := SN{}.ResolveBlock(te.env, block("a", "b", "c", "d", "e", "f"), 6)
	if st.Distinct != 3 {
		t.Errorf("stopped after %d distinct, want 3", st.Distinct)
	}
	if st.Compared != 3 {
		t.Errorf("compared %d, want 3", st.Compared)
	}
}

func TestDecideSkips(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	te := newTestEnv(dups)
	skip := entity.PairSet{}
	skip.Add(entity.MakePair(0, 1))
	te.env.Decide = func(p entity.Pair, _, _ int) Decision {
		if skip.Has(p) {
			return SkipResolved
		}
		return Resolve
	}
	st := SN{}.ResolveBlock(te.env, block("a", "b", "c"), 5)
	if st.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", st.Skipped)
	}
	if st.Compared != 2 {
		t.Errorf("compared = %d, want 2", st.Compared)
	}
	for _, e := range te.emitted {
		if e == "0-1:true" {
			t.Error("skipped pair must not be emitted")
		}
	}
}

func TestSkipCostCheaperThanCompare(t *testing.T) {
	model := costmodel.Default()
	all := newTestEnv(entity.PairSet{})
	SN{}.ResolveBlock(all.env, block("a", "b"), 5)
	skipped := newTestEnv(entity.PairSet{})
	skipped.env.Decide = func(entity.Pair, int, int) Decision { return SkipResolved }
	SN{}.ResolveBlock(skipped.env, block("a", "b"), 5)
	if skipped.charged >= all.charged {
		t.Errorf("skip-all cost %v should be below compare-all cost %v", skipped.charged, all.charged)
	}
	want := model.PairCompare - model.SkipPair
	if diff := all.charged - skipped.charged; diff < want-1e-9 || diff > want+1e-9 {
		t.Errorf("cost difference %v, want %v", diff, want)
	}
}

func TestPopcornStopsOnRateDrop(t *testing.T) {
	p := &Popcorn{Threshold: 0.5, Window: 4}
	st := &VisitStats{}
	// First 4 observations all duplicates: rate 1.0 → no stop.
	for i := 0; i < 4; i++ {
		p.Observe(true)
	}
	if p.Stop(st) {
		t.Error("rate 1.0 must not stop")
	}
	// Next 4 all distinct: rate 0 → stop.
	for i := 0; i < 4; i++ {
		p.Observe(false)
	}
	if !p.Stop(st) {
		t.Error("rate 0 must stop at threshold 0.5")
	}
}

// TestPopcornNeedsFullWindow: no stop before Window observations, a
// stop at the Window-th — with the zero Window meaning
// defaultPopcornWindow.
func TestPopcornNeedsFullWindow(t *testing.T) {
	for _, tc := range []struct{ window, fill int }{{100, 100}, {0, defaultPopcornWindow}} {
		p := &Popcorn{Threshold: 0.9, Window: tc.window}
		st := &VisitStats{}
		for i := 0; i < tc.fill-1; i++ {
			p.Observe(false)
			if p.Stop(st) {
				t.Fatalf("window %d: stopped after %d observations, before window filled", tc.window, i+1)
			}
		}
		p.Observe(false)
		if !p.Stop(st) {
			t.Errorf("window %d: full window of distinct pairs should stop", tc.window)
		}
	}
}

func TestPopcornRingBuffer(t *testing.T) {
	p := &Popcorn{Threshold: 0.4, Window: 4}
	seq := []bool{true, true, true, true, false, false, true, false}
	for _, o := range seq {
		p.Observe(o)
	}
	// Window now holds the last 4: false, false, true, false → 1 dup.
	if p.dups != 1 {
		t.Errorf("ring buffer dups = %d, want 1", p.dups)
	}
}

func TestPSNMCoversWindowNoDuplicateComparisons(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(1, 2))
	te := newTestEnv(dups)
	PSNM{}.ResolveBlock(te.env, block("a", "b", "c", "d", "e"), 5)
	// All pairs within distance 4 of a 5-block = all 10 pairs.
	if len(te.pairs) != 10 {
		t.Errorf("compared %d pairs, want 10", len(te.pairs))
	}
	seen := entity.PairSet{}
	for _, p := range te.pairs {
		if !seen.Add(p) {
			t.Errorf("pair %v compared twice", p)
		}
	}
}

func TestPSNMExpandsAroundHits(t *testing.T) {
	// All of e0..e3 are duplicates. After the hit (0,1), PSNM must try
	// (0,2) before the systematic (1,1).
	dups := entity.PairSet{}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			dups.Add(entity.MakePair(entity.ID(i), entity.ID(j)))
		}
	}
	te := newTestEnv(dups)
	PSNM{}.ResolveBlock(te.env, block("a", "b", "c", "d"), 4)
	wantPrefix := []entity.Pair{
		entity.MakePair(0, 1), // systematic (0,1) → hit
		entity.MakePair(0, 2), // promoted (0,2) → hit
		entity.MakePair(0, 3), // promoted (0,3)
	}
	if len(te.pairs) < len(wantPrefix) {
		t.Fatalf("only %d pairs compared", len(te.pairs))
	}
	if !reflect.DeepEqual(te.pairs[:3], wantPrefix) {
		t.Errorf("prefix = %v, want %v", te.pairs[:3], wantPrefix)
	}
}

func TestPSNMFindsDupsFasterThanSNWhenClustered(t *testing.T) {
	// A cluster of 5 duplicates at the end of a 30-entity block. Count
	// comparisons until all 10 duplicate pairs are found.
	n := 30
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("%03d", i)
	}
	dups := entity.PairSet{}
	for i := 25; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			dups.Add(entity.MakePair(entity.ID(i), entity.ID(j)))
		}
	}
	countUntilAll := func(m Mechanism) int {
		te := newTestEnv(dups)
		found := 0
		comparisons := 0
		te.env.Emit = func(p entity.Pair, isDup bool) {
			comparisons++
			if isDup {
				found++
			}
		}
		te.env.Stop = func(st *VisitStats) bool { return found == 10 }
		m.ResolveBlock(te.env, block(labels...), n)
		return comparisons
	}
	snCost := countUntilAll(SN{})
	psnmCost := countUntilAll(PSNM{})
	if psnmCost >= snCost {
		t.Errorf("PSNM (%d comparisons) should beat SN (%d) on clustered dups", psnmCost, snCost)
	}
}

func TestPSNMTinyBlocks(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	if st := (PSNM{}).ResolveBlock(te.env, block("a"), 5); st.Compared != 0 {
		t.Error("singleton block should compare nothing")
	}
}

func TestMechanismNames(t *testing.T) {
	if (SN{}).Name() != "SN" || (PSNM{}).Name() != "PSNM" {
		t.Error("mechanism names wrong")
	}
}

func TestObserverReceivesOutcomes(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	te := newTestEnv(dups)
	var observed []bool
	te.env.Observer = func(isDup bool) { observed = append(observed, isDup) }
	SN{}.ResolveBlock(te.env, block("a", "b", "c"), 5)
	if len(observed) != 3 {
		t.Fatalf("observer saw %d outcomes, want 3", len(observed))
	}
	nDup := 0
	for _, o := range observed {
		if o {
			nDup++
		}
	}
	if nDup != 1 {
		t.Errorf("observer saw %d dups, want 1", nDup)
	}
}

func TestVisitStatsConsistency(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	dups.Add(entity.MakePair(2, 3))
	for _, m := range []Mechanism{SN{}, PSNM{}} {
		te := newTestEnv(dups)
		st := m.ResolveBlock(te.env, block("a", "b", "c", "d", "e"), 5)
		if st.Compared != st.Dups+st.Distinct {
			t.Errorf("%s: Compared %d ≠ Dups %d + Distinct %d", m.Name(), st.Compared, st.Dups, st.Distinct)
		}
		if st.Dups != 2 {
			t.Errorf("%s: found %d dups, want 2", m.Name(), st.Dups)
		}
	}
}

func TestSortEntitiesFoldsCaseBreaksTiesByIDAndCharges(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	ents := []*entity.Entity{
		{ID: 3, Attrs: []string{"beta"}},
		{ID: 2, Attrs: []string{"ALPHA"}},
		{ID: 1, Attrs: []string{"alpha"}},
		{ID: 0, Attrs: []string{"Gamma"}},
		{ID: 4, Attrs: nil}, // no sort attribute: the empty key sorts first
	}
	var got []entity.ID
	for _, pos := range te.env.sortEntities(ents, new(sortScratch)) {
		got = append(got, ents[pos].ID)
	}
	if want := []entity.ID{4, 1, 2, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("sorted IDs = %v, want %v", got, want)
	}
	if ents[0].ID != 3 || ents[4].ID != 4 {
		t.Error("sortEntities reordered its input")
	}
	if want := te.env.Cost.HintCost(len(ents)); te.charged != want {
		t.Errorf("charged %v, want the hint cost %v", te.charged, want)
	}
}
