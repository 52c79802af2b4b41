package mechanism

import (
	"testing"

	"proger/internal/entity"
)

func TestRSwooshMergesDuplicateChain(t *testing.T) {
	// e0=e1=e2 duplicates, e3 distinct.
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	dups.Add(entity.MakePair(0, 2))
	dups.Add(entity.MakePair(1, 2))
	te := newTestEnv(dups)
	st := RSwoosh{}.ResolveBlock(te.env, block("a", "b", "c", "d"), 0)
	// All three true pairs must be emitted.
	want := []entity.Pair{entity.MakePair(0, 1), entity.MakePair(0, 2), entity.MakePair(1, 2)}
	emitted := entity.PairSet{}
	for _, p := range te.pairs {
		emitted.Add(p)
	}
	for _, p := range want {
		if !emitted.Has(p) {
			t.Errorf("missing pair %v; emitted %v", p, te.pairs)
		}
	}
	if len(te.pairs) != 3 {
		t.Errorf("emitted %d pairs, want 3", len(te.pairs))
	}
	// Merging saves comparisons: pairwise would need 6; R-Swoosh needs
	// fewer because e2 matches the merged {e0,e1} profile once.
	if st.Compared >= 6 {
		t.Errorf("compared %d, want < 6 (merging should save work)", st.Compared)
	}
}

func TestRSwooshOracleAgainstMergedProfile(t *testing.T) {
	// The oracle matcher keys on IDs, but R-Swoosh compares against the
	// merged representative whose ID is the first constituent's — so a
	// dup of e1 (but not of e0) still matches through the {e0,e1}
	// profile only if it matches e0's ID. Use an attribute-based
	// matcher instead to exercise representative merging.
	ents := []*entity.Entity{
		{ID: 0, Attrs: []string{"alpha"}},
		{ID: 1, Attrs: []string{"alphaX"}}, // longer: becomes representative
		{ID: 2, Attrs: []string{"alphaX"}},
		{ID: 3, Attrs: []string{"omega"}},
	}
	te := newTestEnv(nil)
	te.env.Match = func(a, b *entity.Entity) bool { return a.Attr(0) == b.Attr(0) }
	RSwoosh{}.ResolveBlock(te.env, ents, 0)
	// e1 ≠ "alpha" → e1 starts its own profile; e2 matches e1's profile.
	emitted := entity.PairSet{}
	for _, p := range te.pairs {
		emitted.Add(p)
	}
	if !emitted.Has(entity.MakePair(1, 2)) {
		t.Errorf("pair <e1,e2> missing: %v", te.pairs)
	}
}

func TestRSwooshRepresentativeKeepsLongest(t *testing.T) {
	p := &profile{rep: (&entity.Entity{ID: 0, Attrs: []string{"ab", "xyz"}}).Clone(), members: []int32{0}}
	p.mergeInto(&entity.Entity{ID: 1, Attrs: []string{"abcd", "x"}}, 1)
	if p.rep.Attr(0) != "abcd" || p.rep.Attr(1) != "xyz" {
		t.Errorf("representative = %v", p.rep.Attrs)
	}
	if len(p.members) != 2 {
		t.Errorf("members = %v", p.members)
	}
	// Ragged records extend the representative.
	p.mergeInto(&entity.Entity{ID: 2, Attrs: []string{"a", "b", "extra"}}, 2)
	if p.rep.Attr(2) != "extra" {
		t.Errorf("ragged merge: %v", p.rep.Attrs)
	}
}

func TestRSwooshRespectsDecide(t *testing.T) {
	dups := entity.PairSet{}
	dups.Add(entity.MakePair(0, 1))
	te := newTestEnv(dups)
	te.env.Decide = func(entity.Pair, int, int) Decision { return SkipNotResponsible }
	st := RSwoosh{}.ResolveBlock(te.env, block("a", "b"), 0)
	if len(te.pairs) != 0 {
		t.Errorf("pairs emitted despite SkipNotResponsible: %v", te.pairs)
	}
	if st.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", st.Skipped)
	}
}

func TestRSwooshStops(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	te.env.Stop = DistinctThreshold(2)
	st := RSwoosh{}.ResolveBlock(te.env, block("a", "b", "c", "d", "e"), 0)
	if st.Distinct != 2 {
		t.Errorf("stopped after %d distinct, want 2", st.Distinct)
	}
}

func TestRSwooshTinyBlocks(t *testing.T) {
	te := newTestEnv(entity.PairSet{})
	if st := (RSwoosh{}).ResolveBlock(te.env, nil, 0); st.Compared != 0 {
		t.Error("empty block")
	}
	if st := (RSwoosh{}).ResolveBlock(te.env, block("a"), 0); st.Compared != 0 {
		t.Error("singleton block")
	}
	if (RSwoosh{}).Name() != "R-Swoosh" {
		t.Error("name")
	}
}
