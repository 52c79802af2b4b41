// Package match implements the resolve/match function: the
// compute-intensive decision of whether two entities co-refer.
//
// Following §VI-A2 of the paper, a Matcher applies a similarity
// function to each configured attribute and declares a pair duplicate
// when the weighted sum of the attribute similarities reaches a
// threshold. The Matcher also counts invocations so experiments can
// report comparison totals.
package match

import (
	"fmt"
	"math"

	"proger/internal/entity"
	"proger/internal/textsim"
)

// SimKind selects the similarity function applied to an attribute.
type SimKind int

const (
	// EditDistance is normalized Levenshtein similarity (§VI-A2,
	// "we measured the similarity ... using edit distance").
	EditDistance SimKind = iota
	// ExactMatch is 1 iff the values are equal (used for several
	// OL-Books attributes).
	ExactMatch
	// JaroWinklerSim is Jaro-Winkler similarity, offered as an
	// alternative for name-like attributes.
	JaroWinklerSim
	// JaccardQ2 is Jaccard similarity over 2-grams, robust to token
	// reordering.
	JaccardQ2
	// TokenCosine is cosine similarity over whitespace-token frequency
	// vectors — order-insensitive, suited to author lists and titles
	// with swapped words.
	TokenCosine
)

// String implements fmt.Stringer for diagnostics.
func (k SimKind) String() string {
	switch k {
	case EditDistance:
		return "edit"
	case ExactMatch:
		return "exact"
	case JaroWinklerSim:
		return "jaro-winkler"
	case JaccardQ2:
		return "jaccard-q2"
	case TokenCosine:
		return "token-cosine"
	default:
		return fmt.Sprintf("SimKind(%d)", int(k))
	}
}

// Rule scores one attribute.
type Rule struct {
	// Attr is the attribute index in the dataset schema.
	Attr int
	// Weight is the rule's share of the weighted sum. Weights should
	// sum to 1 across the Matcher's rules (Normalize enforces this).
	Weight float64
	// Kind selects the similarity function.
	Kind SimKind
	// MaxChars, when > 0, truncates both values before comparison.
	// The paper compares only the first ≤350 characters of abstracts.
	MaxChars int
}

// Matcher is a weighted multi-attribute resolve function.
// It is safe for concurrent use.
type Matcher struct {
	Rules []Rule
	// Threshold on the weighted similarity sum, in [0,1].
	Threshold float64

	// suffixWeight[i] is the total weight of Rules[i:], precomputed by
	// New so the early-exit check in Score costs an index instead of a
	// per-call summation loop. Invariant: suffixWeight[0] == 1 (weights
	// are normalized at construction).
	suffixWeight []float64
}

// New builds a Matcher after validating and normalizing the rules so
// their weights sum to 1.
func New(threshold float64, rules ...Rule) (*Matcher, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("match: threshold %v outside (0,1]", threshold)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("match: at least one rule required")
	}
	total := 0.0
	for i, r := range rules {
		if r.Weight <= 0 {
			return nil, fmt.Errorf("match: rule %d has non-positive weight %v", i, r.Weight)
		}
		if r.Attr < 0 {
			return nil, fmt.Errorf("match: rule %d has negative attribute index", i)
		}
		total += r.Weight
	}
	normalized := make([]Rule, len(rules))
	copy(normalized, rules)
	for i := range normalized {
		normalized[i].Weight /= total
	}
	// suffixWeight[i] = Σ weights of normalized[i:]; one extra slot so
	// Score can index past the last rule.
	suffix := make([]float64, len(normalized)+1)
	for i := len(normalized) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + normalized[i].Weight
	}
	if math.Abs(suffix[0]-1) > 1e-9 {
		return nil, fmt.Errorf("match: internal error: normalized weights sum to %v, want 1", suffix[0])
	}
	return &Matcher{Rules: normalized, Threshold: threshold, suffixWeight: suffix}, nil
}

// MustNew is New that panics on error, for configuration literals.
func MustNew(threshold float64, rules ...Rule) *Matcher {
	m, err := New(threshold, rules...)
	if err != nil {
		panic(err)
	}
	return m
}

// Score returns the weighted similarity of a and b in [0,1]. When the
// running sum shows the pair cannot reach the threshold it returns the
// partial sum, which is below the threshold by construction.
func (m *Matcher) Score(a, b *entity.Entity) float64 {
	score, _ := m.evaluate(a, b, false)
	return score
}

// Match applies the resolve function and reports whether the pair
// co-refers: Match(a, b) == (Score(a, b) >= Threshold) for every input.
// It gets there without computing distances the decision does not need
// (see editBudget).
func (m *Matcher) Match(a, b *entity.Entity) bool {
	_, ok := m.evaluate(a, b, true)
	return ok
}

// evaluate is the one rule loop behind Score and Match. It returns the
// running weighted sum and whether the pair reached the threshold; the
// sum is final when it did and partial when a rule proved it cannot.
// With budgeted set, an edit rule hands the kernel the largest distance
// that still passes that rule's check, so a pair that fails it is
// abandoned mid-string; whenever the kernel finishes, the distance is
// exact and the sum has the same bits as the unbudgeted one.
func (m *Matcher) evaluate(a, b *entity.Entity, budgeted bool) (float64, bool) {
	suffix := m.suffixWeight
	if suffix == nil {
		// Matcher built without New (struct literal): fall back to
		// computing the suffix sums once here.
		suffix = make([]float64, len(m.Rules)+1)
		for i := len(m.Rules) - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1] + m.Rules[i].Weight
		}
	}
	score := 0.0
	for i, r := range m.Rules {
		va, vb := a.Attr(r.Attr), b.Attr(r.Attr)
		if r.MaxChars > 0 {
			if len(va) > r.MaxChars {
				va = va[:r.MaxChars]
			}
			if len(vb) > r.MaxChars {
				vb = vb[:r.MaxChars]
			}
		}
		rest := suffix[i+1]
		var sim float64
		switch r.Kind {
		case EditDistance:
			maxLen := max(len(va), len(vb))
			if maxLen == 0 {
				sim = 1
				break
			}
			var d int
			// The budget argument needs a positive finite weight and a
			// non-negative remainder, which New guarantees; a
			// struct-literal Matcher without them takes the exact path.
			if budgeted && r.Weight > 0 && !math.IsInf(r.Weight, 1) && rest >= 0 {
				budget := m.editBudget(score, r.Weight, rest, maxLen)
				if budget < 0 {
					return score, false
				}
				if d = textsim.LevenshteinCapped(va, vb, budget); d > budget {
					return score, false
				}
			} else {
				d = textsim.Levenshtein(va, vb)
			}
			sim = editSimilarity(d, maxLen)
		case ExactMatch:
			sim = textsim.Exact(va, vb)
		case JaroWinklerSim:
			sim = textsim.JaroWinkler(va, vb)
		case JaccardQ2:
			sim = textsim.JaccardQGram(va, vb, 2)
		case TokenCosine:
			sim = textsim.TokenCosine(va, vb)
		}
		score = accumulate(score, r.Weight, sim)
		// Early exit: even a perfect score on the remaining rules
		// cannot reach the threshold.
		if score+rest < m.Threshold {
			break
		}
	}
	return score, score >= m.Threshold
}

// editSimilarity is the normalized edit similarity of two strings at
// distance d whose longer one has maxLen > 0 bytes.
func editSimilarity(d, maxLen int) float64 {
	return 1 - float64(d)/float64(maxLen)
}

// accumulate adds one rule's weighted similarity to the running sum.
// The budget probe and the rule loop both go through it, and the
// explicit conversion forbids fusing the multiply into the add, so the
// two see the same float64 bits on every platform.
func accumulate(score, weight, sim float64) float64 {
	return score + float64(weight*sim)
}

// editBudget returns the largest distance d in [0, maxLen] at which an
// edit rule of the given weight still passes its early-exit check —
// f(d) = accumulate(score, weight, editSimilarity(d, maxLen)) + rest
// >= Threshold — or -1 when not even d = 0 does. Every operation in f
// is monotone, so f is non-increasing in d and "distance within the
// budget" is exactly "the rule loop would not exit here". The
// real-valued solution of f(d) = Threshold only seeds the search; the
// answer is settled by evaluating f itself, one step either side, so
// no epsilon is involved.
func (m *Matcher) editBudget(score, weight, rest float64, maxLen int) int {
	passes := func(d int) bool {
		return accumulate(score, weight, editSimilarity(d, maxLen))+rest >= m.Threshold
	}
	k := 0
	if x := float64(maxLen) * (1 - (m.Threshold-score-rest)/weight); x >= float64(maxLen) {
		k = maxLen
	} else if x > 0 {
		k = int(x)
	}
	for k < maxLen && passes(k+1) {
		k++
	}
	for k >= 0 && !passes(k) {
		k--
	}
	return k
}
