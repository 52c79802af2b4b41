package match

import (
	"math/rand"
	"sync"
	"testing"

	"proger/internal/entity"
)

func ent(attrs ...string) *entity.Entity { return &entity.Entity{ID: 0, Attrs: attrs} }

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Rule{Attr: 0, Weight: 1}); err == nil {
		t.Error("threshold 0: want error")
	}
	if _, err := New(1.5, Rule{Attr: 0, Weight: 1}); err == nil {
		t.Error("threshold >1: want error")
	}
	if _, err := New(0.8); err == nil {
		t.Error("no rules: want error")
	}
	if _, err := New(0.8, Rule{Attr: 0, Weight: -1}); err == nil {
		t.Error("negative weight: want error")
	}
	if _, err := New(0.8, Rule{Attr: -2, Weight: 1}); err == nil {
		t.Error("negative attr: want error")
	}
}

func TestWeightNormalization(t *testing.T) {
	m := MustNew(0.5,
		Rule{Attr: 0, Weight: 2, Kind: ExactMatch},
		Rule{Attr: 1, Weight: 2, Kind: ExactMatch},
	)
	sum := 0.0
	for _, r := range m.Rules {
		sum += r.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}

func TestMatchExact(t *testing.T) {
	m := MustNew(0.99, Rule{Attr: 0, Weight: 1, Kind: ExactMatch})
	if !m.Match(ent("x"), ent("x")) {
		t.Error("identical should match")
	}
	if m.Match(ent("x"), ent("y")) {
		t.Error("different should not match")
	}
}

func TestMatchWeightedSum(t *testing.T) {
	// Two attributes, equal weight; one identical, one completely
	// different → score 0.5.
	m := MustNew(0.6,
		Rule{Attr: 0, Weight: 1, Kind: EditDistance},
		Rule{Attr: 1, Weight: 1, Kind: EditDistance},
	)
	a := ent("same title", "aaaa")
	b := ent("same title", "zzzz")
	if got := m.Score(a, b); got > 0.51 {
		t.Errorf("Score = %v, want ≈0.5", got)
	}
	if m.Match(a, b) {
		t.Error("score 0.5 must not pass threshold 0.6")
	}
	m2 := MustNew(0.4,
		Rule{Attr: 0, Weight: 1, Kind: EditDistance},
		Rule{Attr: 1, Weight: 1, Kind: EditDistance},
	)
	if !m2.Match(a, b) {
		t.Error("score 0.5 should pass threshold 0.4")
	}
}

func TestMatchTypoTolerance(t *testing.T) {
	m := MustNew(0.85, Rule{Attr: 0, Weight: 1, Kind: EditDistance})
	if !m.Match(ent("Charles Andrews"), ent("Gharles Andrews")) {
		t.Error("single-typo names should match at 0.85")
	}
	if m.Match(ent("Mary Gibson"), ent("Chloe Matthew")) {
		t.Error("unrelated names should not match")
	}
}

func TestMaxCharsTruncation(t *testing.T) {
	m := MustNew(0.9, Rule{Attr: 0, Weight: 1, Kind: EditDistance, MaxChars: 4})
	// Values agree in the first 4 chars, differ wildly after.
	if !m.Match(ent("abcdXXXXXXXX"), ent("abcdYYYY")) {
		t.Error("truncated comparison should match on shared prefix")
	}
}

func TestScoreEarlyExit(t *testing.T) {
	// First rule scores 0 with weight 0.9 → remaining 0.1 cannot reach
	// threshold 0.5; Score returns early and must stay below threshold.
	m := MustNew(0.5,
		Rule{Attr: 0, Weight: 9, Kind: ExactMatch},
		Rule{Attr: 1, Weight: 1, Kind: ExactMatch},
	)
	got := m.Score(ent("a", "same"), ent("b", "same"))
	if got >= m.Threshold {
		t.Errorf("early-exit score %v ≥ threshold", got)
	}
}

func TestJaroAndJaccardKinds(t *testing.T) {
	mj := MustNew(0.9, Rule{Attr: 0, Weight: 1, Kind: JaroWinklerSim})
	if !mj.Match(ent("MARTHA"), ent("MARHTA")) {
		t.Error("Jaro-Winkler should match MARTHA/MARHTA at 0.9")
	}
	mq := MustNew(0.5, Rule{Attr: 0, Weight: 1, Kind: JaccardQ2})
	if !mq.Match(ent("entity resolution"), ent("entity resolution")) {
		t.Error("identical strings should match under Jaccard")
	}
	if mq.Match(ent("abcdef"), ent("uvwxyz")) {
		t.Error("disjoint strings should not match under Jaccard")
	}
}

func TestSimKindString(t *testing.T) {
	kinds := map[SimKind]string{
		EditDistance:   "edit",
		ExactMatch:     "exact",
		JaroWinklerSim: "jaro-winkler",
		JaccardQ2:      "jaccard-q2",
		SimKind(99):    "SimKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestTokenCosineKind(t *testing.T) {
	m := MustNew(0.9, Rule{Attr: 0, Weight: 1, Kind: TokenCosine})
	if !m.Match(ent("john lopez"), ent("lopez john")) {
		t.Error("token cosine should match swapped words")
	}
	if m.Match(ent("alpha beta"), ent("gamma delta")) {
		t.Error("disjoint tokens should not match")
	}
	if TokenCosine.String() != "token-cosine" {
		t.Error("kind string")
	}
}

func TestSuffixWeightInvariant(t *testing.T) {
	m := MustNew(0.5,
		Rule{Attr: 0, Weight: 3, Kind: ExactMatch},
		Rule{Attr: 1, Weight: 2, Kind: ExactMatch},
		Rule{Attr: 2, Weight: 5, Kind: ExactMatch},
	)
	if len(m.suffixWeight) != len(m.Rules)+1 {
		t.Fatalf("suffixWeight has %d entries, want %d", len(m.suffixWeight), len(m.Rules)+1)
	}
	if s := m.suffixWeight[0]; s < 0.999999999 || s > 1.000000001 {
		t.Errorf("suffixWeight[0] = %v, want 1 (normalized)", s)
	}
	if m.suffixWeight[len(m.Rules)] != 0 {
		t.Errorf("suffixWeight[last] = %v, want 0", m.suffixWeight[len(m.Rules)])
	}
	for i, r := range m.Rules {
		got := m.suffixWeight[i] - m.suffixWeight[i+1]
		if got < r.Weight-1e-12 || got > r.Weight+1e-12 {
			t.Errorf("suffixWeight[%d]-suffixWeight[%d] = %v, want rule weight %v", i, i+1, got, r.Weight)
		}
	}
}

func TestScoreWithoutNewFallsBack(t *testing.T) {
	// A Matcher assembled by hand (no New, no suffix table) must still
	// score correctly via the fallback path.
	m := &Matcher{
		Threshold: 0.5,
		Rules: []Rule{
			{Attr: 0, Weight: 0.5, Kind: ExactMatch},
			{Attr: 1, Weight: 0.5, Kind: ExactMatch},
		},
	}
	if got := m.Score(ent("x", "y"), ent("x", "y")); got < 0.999 {
		t.Errorf("Score = %v, want 1", got)
	}
}

func TestScoreEarlyExitStillBelowThreshold(t *testing.T) {
	// First rule mismatch on a 0.9-threshold two-rule matcher: early
	// exit must return a partial score strictly below the threshold.
	m := MustNew(0.9,
		Rule{Attr: 0, Weight: 0.5, Kind: ExactMatch},
		Rule{Attr: 1, Weight: 0.5, Kind: ExactMatch},
	)
	if got := m.Score(ent("x", "same"), ent("y", "same")); got >= m.Threshold {
		t.Errorf("early-exit score %v not below threshold", got)
	}
}

// randText returns n random bytes over the first sigma lowercase letters.
func randText(rng *rand.Rand, n, sigma int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(sigma))
	}
	return string(b)
}

// mutateOnce applies one random insertion, deletion or substitution.
func mutateOnce(rng *rand.Rand, s string) string {
	b := []byte(s)
	c := byte('a' + rng.Intn(26))
	switch op := rng.Intn(3); {
	case op == 0 || len(b) == 0:
		i := rng.Intn(len(b) + 1)
		b = append(b[:i], append([]byte{c}, b[i:]...)...)
	case op == 1:
		i := rng.Intn(len(b))
		b = append(b[:i], b[i+1:]...)
	default:
		b[rng.Intn(len(b))] = c
	}
	return string(b)
}

// TestMatchEqualsScoreDecision is the property the distance budget
// rests on: Match(a, b) == (Score(a, b) >= Threshold) for every matcher
// and pair, and every Match call counts one comparison. Each base pair
// is swept across its threshold by mutating one attribute a byte at a
// time, so the pairs where budget and distance differ by one are hit.
func TestMatchEqualsScoreDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const attrs = 4
	kinds := []SimKind{EditDistance, ExactMatch, JaroWinklerSim, JaccardQ2, TokenCosine}
	niceThresholds := []float64{0.5, 0.62, 0.75, 0.8, 0.9, 1}
	matched, unmatched := 0, 0
	for iter := 0; iter < 600; iter++ {
		rules := make([]Rule, 1+rng.Intn(4))
		for i := range rules {
			// Attr may point past the entity's last attribute.
			r := Rule{Attr: rng.Intn(attrs + 1), Weight: 0.05 + rng.Float64()}
			if rng.Intn(10) < 4 {
				r.Kind = kinds[rng.Intn(len(kinds))]
			}
			if rng.Intn(3) == 0 {
				r.MaxChars = 1 + rng.Intn(90)
			}
			rules[i] = r
		}
		threshold := 1 - rng.Float64() // (0, 1]
		if rng.Intn(2) == 0 {
			threshold = niceThresholds[rng.Intn(len(niceThresholds))]
		}
		var m *Matcher
		if iter%4 == 3 {
			// Struct literal: no suffix table, weights not normalized,
			// and now and then a weight New would have refused.
			if rng.Intn(3) == 0 {
				rules[rng.Intn(len(rules))].Weight = float64(rng.Intn(2)) - 1 // -1 or 0
			}
			m = &Matcher{Rules: rules, Threshold: threshold}
		} else {
			m = MustNew(threshold, rules...)
		}
		a := &entity.Entity{ID: 1, Attrs: make([]string, attrs)}
		for i := range a.Attrs {
			if rng.Intn(8) > 0 { // else: empty attribute
				a.Attrs[i] = randText(rng, 1+rng.Intn(130), 2+rng.Intn(25))
			}
		}
		b := a.Clone()
		b.ID = 2
		if rng.Intn(8) == 0 {
			b.Attrs = b.Attrs[:rng.Intn(attrs)] // ragged record
		}
		check := func() {
			t.Helper()
			got, score := m.Match(a, b), m.Score(a, b)
			if want := score >= m.Threshold; got != want {
				t.Fatalf("Match = %v but Score = %v vs threshold %v\nrules %+v\na=%q\nb=%q",
					got, score, m.Threshold, m.Rules, a.Attrs, b.Attrs)
			}
			if rev := m.Match(b, a); rev != got {
				t.Fatalf("Match(b,a) = %v, Match(a,b) = %v", rev, got)
			}
			if got {
				matched++
			} else {
				unmatched++
			}
		}
		check()
		for step := 0; step < 60 && len(b.Attrs) > 0; step++ {
			i := rng.Intn(len(b.Attrs))
			b.Attrs[i] = mutateOnce(rng, b.Attrs[i])
			check()
		}
	}
	if matched < 1000 || unmatched < 1000 {
		t.Errorf("sweep is lopsided: %d matches, %d non-matches", matched, unmatched)
	}
}

// TestEditBudgetIsLargestPassingDistance checks the budget directly:
// the rule check passes at the budget and fails one past it.
func TestEditBudgetIsLargestPassingDistance(t *testing.T) {
	// (1-0.8)*5 is 0.999… in float64; the budget is still 1.
	if got := MustNew(0.8, Rule{Weight: 1}).editBudget(0, 1, 0, 5); got != 1 {
		t.Errorf("threshold 0.8, length 5: budget %d, want 1", got)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		m := &Matcher{Threshold: 1 - rng.Float64()}
		weight := 0.01 + rng.Float64()
		score, rest := rng.Float64()*(1-weight), rng.Float64()*(1-weight)
		maxLen := 1 + rng.Intn(400)
		passes := func(d int) bool {
			return accumulate(score, weight, editSimilarity(d, maxLen))+rest >= m.Threshold
		}
		k := m.editBudget(score, weight, rest, maxLen)
		if k < -1 || k > maxLen || (k >= 0 && !passes(k)) || (k < maxLen && passes(k+1)) {
			t.Fatalf("editBudget(score %v, weight %v, rest %v, maxLen %d) at threshold %v = %d",
				score, weight, rest, maxLen, m.Threshold, k)
		}
	}
}

// TestMatchConcurrentLongStrings drives the blocked kernel path (both
// strings longer than 64 bytes) and its pooled scratch from several
// goroutines at once; run it under -race.
func TestMatchConcurrentLongStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := MustNew(0.75,
		Rule{Attr: 0, Weight: 0.5, Kind: EditDistance},
		Rule{Attr: 1, Weight: 0.5, Kind: EditDistance, MaxChars: 350},
	)
	type pair struct {
		a, b *entity.Entity
		want bool
	}
	pairs := make([]pair, 64)
	for i := range pairs {
		a := ent(randText(rng, 70+rng.Intn(60), 26), randText(rng, 300+rng.Intn(120), 26))
		b := a.Clone()
		for e := rng.Intn(160); e > 0; e-- {
			j := rng.Intn(2)
			b.Attrs[j] = mutateOnce(rng, b.Attrs[j])
		}
		pairs[i] = pair{a, b, m.Score(a, b) >= m.Threshold}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range pairs {
					p := pairs[(i+g*8)%len(pairs)]
					if got := m.Match(p.a, p.b); got != p.want {
						t.Errorf("goroutine %d: Match = %v, want %v", g, got, p.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
