package match

import (
	"math"
	"math/rand"
	"strings"
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

// checkDecision holds one matcher and pair to the pinned property —
// Match(a, b) == (Score(a, b) >= Threshold), in either argument order —
// and returns the decision.
func checkDecision(t testing.TB, m *Matcher, a, b *entity.Entity) bool {
	t.Helper()
	got, score := m.Match(a, b), m.Score(a, b)
	if want := score >= m.Threshold; got != want {
		t.Fatalf("Match = %v but Score = %v vs threshold %v\nrules %+v\na=%q\nb=%q",
			got, score, m.Threshold, m.Rules, a.Attrs, b.Attrs)
	}
	if rev := m.Match(b, a); rev != got {
		t.Fatalf("Match(b,a) = %v, Match(a,b) = %v\nrules %+v\na=%q\nb=%q", rev, got, m.Rules, a.Attrs, b.Attrs)
	}
	return got
}

// fullScore is the pair's weighted sum with no early exit: the score
// under a threshold nothing can fall short of.
func fullScore(m *Matcher, a, b *entity.Entity) float64 {
	full := *m
	full.Threshold = math.SmallestNonzeroFloat64
	return full.Score(a, b)
}

// checkOnThreshold moves the matcher's threshold onto the pair's own
// score and one ulp either side of it — the three places where a bound
// with a tolerance on the wrong side, or a sum in the wrong order,
// decides differently from Score — and checks the property at each.
func checkOnThreshold(t testing.TB, m *Matcher, a, b *entity.Entity) {
	t.Helper()
	s := fullScore(m, a, b)
	for _, th := range []float64{math.Nextafter(s, 0), s, math.Nextafter(s, 2)} {
		if th > 0 && th <= 1 {
			at := *m
			at.Threshold = th
			checkDecision(t, &at, a, b)
		}
	}
}

var allKinds = []SimKind{EditDistance, ExactMatch, JaroWinklerSim, JaccardQ2, TokenCosine}

// randPair returns an entity of attrs random attributes, some empty,
// and a copy of it, now and then ragged.
func randPair(rng *rand.Rand, attrs int) (a, b *entity.Entity) {
	a = &entity.Entity{ID: 1, Attrs: make([]string, attrs)}
	for i := range a.Attrs {
		if rng.Intn(8) > 0 { // else: empty attribute
			a.Attrs[i] = randText(rng, 1+rng.Intn(130), 2+rng.Intn(25))
		}
	}
	b = a.Clone()
	b.ID = 2
	if rng.Intn(8) == 0 {
		b.Attrs = b.Attrs[:rng.Intn(attrs)] // ragged record
	}
	return a, b
}

// TestMatchEqualsScoreDecision is the property Match's bounds and
// budgets rest on: Match(a, b) == (Score(a, b) >= Threshold) for every
// matcher and pair. Each base pair is swept across its threshold by
// mutating one attribute a byte at a time, so the pairs where budget
// and distance differ by one are hit, and every few steps the threshold
// is moved onto the pair's score itself.
func TestMatchEqualsScoreDecision(t *testing.T) {
	matched, unmatched := 0, 0
	sweep := func(rng *rand.Rand, m *Matcher, a, b *entity.Entity) {
		t.Helper()
		for step := 0; ; step++ {
			if checkDecision(t, m, a, b) {
				matched++
			} else {
				unmatched++
			}
			if step%8 == 0 {
				checkOnThreshold(t, m, a, b)
			}
			if step == 60 || len(b.Attrs) == 0 {
				return
			}
			i := rng.Intn(len(b.Attrs))
			b.Attrs[i] = mutateOnce(rng, b.Attrs[i])
		}
	}
	const attrs = 4
	niceThresholds := []float64{0.5, 0.62, 0.75, 0.8, 0.9, 1}
	randThreshold := func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return niceThresholds[rng.Intn(len(niceThresholds))]
		}
		return 1 - rng.Float64() // (0, 1]
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		for iter := 0; iter < 600; iter++ {
			rules := make([]Rule, 1+rng.Intn(4))
			if iter%50 == 0 {
				rules = make([]Rule, stackRules+1+rng.Intn(4)) // per-pair state off the stack
			}
			for i := range rules {
				// Attr may point past the entity's last attribute.
				r := Rule{Attr: rng.Intn(attrs + 1), Weight: 0.05 + rng.Float64()}
				if rng.Intn(10) < 4 {
					r.Kind = allKinds[rng.Intn(len(allKinds))]
				}
				if rng.Intn(3) == 0 {
					r.MaxChars = 1 + rng.Intn(90)
				}
				rules[i] = r
			}
			var m *Matcher
			if iter%4 == 3 {
				// Struct literal: no suffix table, no plan, weights not
				// normalized, and now and then a weight New would have
				// refused — which no bound would survive.
				if rng.Intn(3) == 0 {
					rules[rng.Intn(len(rules))].Weight = float64(rng.Intn(2)) - 1 // -1 or 0
				}
				m = &Matcher{Rules: rules, Threshold: randThreshold(rng)}
			} else {
				m = MustNew(randThreshold(rng), rules...)
			}
			a, b := randPair(rng, attrs)
			sweep(rng, m, a, b)
		}
	})

	// All five kinds in one matcher, in each of their 120 orders, with
	// more rules than the entities have attributes.
	t.Run("every-kind-order", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		var orders [][]SimKind
		var permute func(done, rest []SimKind)
		permute = func(done, rest []SimKind) {
			if len(rest) == 0 {
				orders = append(orders, append([]SimKind(nil), done...))
			}
			for i := range rest {
				others := append(append([]SimKind(nil), rest[:i]...), rest[i+1:]...)
				permute(append(done, rest[i]), others)
			}
		}
		permute(nil, allKinds)
		for _, order := range orders {
			rules := make([]Rule, len(order))
			for i, k := range order {
				rules[i] = Rule{Attr: rng.Intn(attrs + 1), Weight: 0.05 + rng.Float64(), Kind: k}
				if rng.Intn(3) == 0 {
					rules[i].MaxChars = 1 + rng.Intn(90)
				}
			}
			a, b := randPair(rng, attrs)
			sweep(rng, MustNew(randThreshold(rng), rules...), a, b)
		}
	})

	// The books rule set over a grid of pairs whose real-valued score is
	// a multiple of 0.005, so that many land on the 0.62 threshold and
	// on either side of it by rounding alone.
	t.Run("books-grid", func(t *testing.T) {
		m := MustNew(0.62, booksRules...)
		// differing(n, d) is a pair of n-byte strings at edit distance d.
		differing := func(n, d int) (string, string) {
			x := strings.Repeat("a", n)
			return x, strings.Repeat("b", d) + x[d:]
		}
		onThreshold := 0
		for dt := 0; dt <= 20; dt++ {
			for da := 0; da <= 10; da++ {
				for dp := 0; dp <= 5; dp++ {
					for exact := 0; exact < 1<<5; exact++ {
						a, b := ent("", "", "", "y", "l", "f", "p", "e"), ent("", "", "", "y", "l", "f", "p", "e")
						a.Attrs[0], b.Attrs[0] = differing(20, dt)
						a.Attrs[1], b.Attrs[1] = differing(10, da)
						a.Attrs[2], b.Attrs[2] = differing(5, dp)
						for bit := 0; bit < 5; bit++ {
							if exact>>bit&1 == 1 {
								b.Attrs[3+bit] = "other"
							}
						}
						if checkDecision(t, m, a, b) {
							matched++
						} else {
							unmatched++
						}
						if math.Abs(fullScore(m, a, b)-0.62) < 1e-12 {
							onThreshold++
						}
					}
				}
			}
		}
		if onThreshold < 100 {
			t.Errorf("only %d grid pairs score 0.62: the grid misses the threshold", onThreshold)
		}
	})

	if matched < 1000 || unmatched < 1000 {
		t.Errorf("sweep is lopsided: %d matches, %d non-matches", matched, unmatched)
	}
}

// booksRules and publicationsRules are the rule sets of the two
// experiment workloads (internal/experiments), attributes in schema
// order.
var (
	booksRules = []Rule{
		{Attr: 0, Weight: 0.35, Kind: EditDistance},
		{Attr: 1, Weight: 0.25, Kind: EditDistance},
		{Attr: 2, Weight: 0.10, Kind: EditDistance},
		{Attr: 3, Weight: 0.08, Kind: ExactMatch},
		{Attr: 4, Weight: 0.06, Kind: ExactMatch},
		{Attr: 5, Weight: 0.05, Kind: ExactMatch},
		{Attr: 6, Weight: 0.05, Kind: ExactMatch},
		{Attr: 7, Weight: 0.06, Kind: ExactMatch},
	}
	publicationsRules = []Rule{
		{Attr: 0, Weight: 0.5, Kind: EditDistance},
		{Attr: 1, Weight: 0.3, Kind: EditDistance, MaxChars: 350},
		{Attr: 2, Weight: 0.2, Kind: EditDistance},
	}
)

// TestBoundIsUpperBound checks step 1 of decide directly: for random
// rule sets and pairs, Σ weight × bound plus the slack is at least the
// score, and — when the pre-pass ran to its end — each rule's bound is
// at least its similarity, the sum is the sum of the bounds, and an edit
// rule's cost is its kernel's columns × words.
func TestBoundIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const attrs = 4
	stopped, finished := 0, 0
	for iter := 0; iter < 4000; iter++ {
		rules := make([]Rule, 1+rng.Intn(6))
		for i := range rules {
			rules[i] = Rule{Attr: rng.Intn(attrs + 1), Weight: 0.05 + rng.Float64(), Kind: allKinds[rng.Intn(len(allKinds))]}
			if rng.Intn(3) == 0 {
				rules[i].MaxChars = 1 + rng.Intn(90)
			}
		}
		rules[rng.Intn(len(rules))].Kind = EditDistance // a kernel, so a plan
		m := MustNew(1-rng.Float64(), rules...)
		a, b := randPair(rng, attrs)
		for e := rng.Intn(40); e > 0 && len(b.Attrs) > 0; e-- {
			i := rng.Intn(len(b.Attrs))
			b.Attrs[i] = mutateOnce(rng, b.Attrs[i])
		}
		sim, cost := make([]float64, len(m.Rules)), make([]int, len(m.plan.kernel))
		total := m.bound(a, b, sim, cost)
		if score := fullScore(m, a, b); total+boundSlack < score {
			t.Fatalf("bound %v below score %v\nrules %+v\na=%q\nb=%q", total, score, m.Rules, a.Attrs, b.Attrs)
		}
		if total < m.Threshold-boundSlack {
			stopped++
			continue
		}
		finished++
		sum, k := 0.0, 0
		for i, r := range m.Rules {
			va, vb := r.value(a), r.value(b)
			if exact := similarity(r.Kind, va, vb); sim[i] < exact || sim[i] > 1 || (r.Kind == ExactMatch && sim[i] != exact) {
				t.Fatalf("rule %d (%v): bound %v, similarity %v\na=%q\nb=%q", i, r.Kind, sim[i], exact, va, vb)
			}
			sum += r.Weight * sim[i]
			if r.Kind == ExactMatch {
				continue
			}
			if r.Kind == EditDistance {
				if want := max(len(va), len(vb)) * ((min(len(va), len(vb)) + 63) / 64); cost[k] != want {
					t.Fatalf("rule %d: cost %d for lengths %d and %d, want %d", i, cost[k], len(va), len(vb), want)
				}
			}
			k++
		}
		if math.Abs(sum-total) > 1e-12 {
			t.Fatalf("bound %v is not the sum of its parts %v", total, sum)
		}
	}
	if stopped < 200 || finished < 200 {
		t.Errorf("lopsided: the pre-pass rejected %d pairs and passed %d", stopped, finished)
	}
}

// TestMatchDoesNotAllocate pins the per-pair state to the stack, for a
// Matcher with a plan and for a struct literal (which has no suffix
// table to read and must not build one per call).
func TestMatchDoesNotAllocate(t *testing.T) {
	a := ent("a title of some length", "some authors", "publisher", "1999", "en", "pb", "300", "1st")
	b := ent("a title of same length", "some author", "publishers", "1999", "en", "hc", "300", "2nd")
	for name, m := range map[string]*Matcher{
		"New":            MustNew(0.62, booksRules...),
		"struct literal": {Rules: booksRules, Threshold: 0.62},
	} {
		if n := testing.AllocsPerRun(100, func() { m.Match(a, b); m.Score(a, b) }); n != 0 {
			t.Errorf("%s: %v allocations per Match + Score", name, n)
		}
	}
}

// fuzzSpec encodes rules the way FuzzMatchDecision decodes them.
func fuzzSpec(rules []Rule) []byte {
	var spec []byte
	for _, r := range rules {
		spec = append(spec, byte(r.Attr), byte(r.Kind), byte(math.Round(r.Weight*100)-1), byte(r.MaxChars/2))
	}
	return spec
}

// FuzzMatchDecision holds Match to Score >= Threshold over fuzzed rule
// sets, thresholds and attribute strings, at the fuzzed threshold and
// with the threshold on the pair's own score. Four spec bytes make a
// rule: attribute, kind (low bits; the high three scale the weight down
// by 10^-3 each, to 10^-21), weight, MaxChars/2. Attributes are
// separated by '|'.
func FuzzMatchDecision(f *testing.F) {
	f.Add(fuzzSpec(booksRules), 0.62,
		"the art of computer programming|Donald Knuth|addison wesley|1968|english|hardcover|672|1st",
		"the art of computer programing|Donald E. Knuth|addison-wesley|1968|english|paperback|672|1st")
	f.Add(fuzzSpec(booksRules), 0.62,
		"racustret fiortea jamnai|Rertio Biomcangul|stosea review|2007|english|hardcover|308|1st",
		"racustret fomolca neamhioha|Hirluclon Guce; Brihour Dionplu|kisbu symposium|2007|english|hardcover|453|1st")
	f.Add(fuzzSpec(publicationsRules), 0.75,
		"parallel progressive approach to entity resolution|"+strings.Repeat("entity resolution finds co-referent records. ", 9)+"|icde",
		"a parallel progressive approach to entity resolution|"+strings.Repeat("entity resolution finds coreferent records. ", 9)+"|icde 2017")
	f.Add([]byte{0, 4, 49, 0, 1, 0 | 1<<5, 49, 3, 0, 5, 9, 0, 2, 3, 29, 0}, 0.9, "john lopez|abcdef", "lopez john|abcxef|zz")
	f.Fuzz(func(t *testing.T, spec []byte, threshold float64, sa, sb string) {
		var rules []Rule
		for ; len(spec) >= 4 && len(rules) < stackRules+4; spec = spec[4:] {
			rules = append(rules, Rule{
				Attr:     int(spec[0] % 8),
				Kind:     SimKind(spec[1] % 8 % 6), // 5 is a kind no switch knows: similarity 0
				Weight:   float64(1+int(spec[2])) * math.Pow10(-3*int(spec[1]>>5)),
				MaxChars: 2 * int(spec[3]),
			})
		}
		m, err := New(threshold, rules...)
		if err != nil {
			t.Skip()
		}
		a := &entity.Entity{ID: 1, Attrs: strings.Split(sa, "|")}
		b := &entity.Entity{ID: 2, Attrs: strings.Split(sb, "|")}
		checkDecision(t, m, a, b)
		checkOnThreshold(t, m, a, b)
	})
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
