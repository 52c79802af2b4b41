// Package match implements the resolve/match function: the
// compute-intensive decision of whether two entities co-refer.
//
// Following §VI-A2 of the paper, a Matcher applies a similarity
// function to each configured attribute and declares a pair duplicate
// when the weighted sum of the attribute similarities reaches a
// threshold. Score is that sum, rule by rule; Match is the same decision
// reached from bounds first, so that a pair which provably cannot reach
// the threshold costs string lengths and a few equality tests, not an
// edit-distance kernel (DESIGN.md "Match kernel: bounds, budgets and
// exactness").
package match

import (
	"fmt"
	"math"
	"sort"

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

	// plan is how Match decides from bounds. It is nil — and Match is
	// the rule loop of Score — when there is no kernel to save (every
	// rule is an ExactMatch: the loop stops at the first rule that
	// settles the pair and reads nothing else) and when the Matcher
	// was not built by New: a bound is only sound over validated
	// weights.
	plan *plan
}

// plan is the static half of Match's bound propagation, fixed by New.
type plan struct {
	// exact lists the ExactMatch rules, heaviest first: their
	// similarity costs one string comparison, and a mismatch on a
	// heavy rule lowers the pair's upper bound the most.
	exact []int
	// kernel lists every other rule, in rule order; the order they run
	// in is chosen per pair, cheapest first.
	kernel []int
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
	m := &Matcher{Rules: normalized, Threshold: threshold, suffixWeight: suffix}
	var p plan
	for i, r := range normalized {
		if r.Kind == ExactMatch {
			p.exact = append(p.exact, i)
		} else {
			p.kernel = append(p.kernel, i)
		}
	}
	if len(p.kernel) > 0 {
		sort.SliceStable(p.exact, func(x, y int) bool {
			return normalized[p.exact[x]].Weight > normalized[p.exact[y]].Weight
		})
		m.plan = &p
	}
	return m, nil
}

// MustNew is New that panics on error, for configuration literals.
func MustNew(threshold float64, rules ...Rule) *Matcher {
	m, err := New(threshold, rules...)
	if err != nil {
		panic(err)
	}
	return m
}

// Score returns the weighted similarity of a and b in [0,1]: the sum,
// in rule order, of weight × similarity. When the running sum shows the
// pair cannot reach the threshold it returns the partial sum, which is
// below the threshold by construction.
func (m *Matcher) Score(a, b *entity.Entity) float64 {
	score, _ := m.sum(a, b)
	return score
}

// Match applies the resolve function and reports whether the pair
// co-refers: Match(a, b) == (Score(a, b) >= Threshold) for every input.
// It gets there without computing distances the decision does not need
// (see decide).
func (m *Matcher) Match(a, b *entity.Entity) bool {
	if m.plan == nil {
		_, ok := m.sum(a, b)
		return ok
	}
	return m.decide(a, b)
}

// sum is the rule loop that defines the resolve function. It returns
// the running weighted sum and whether the pair reached the threshold;
// the sum is final when it did and partial when a rule proved it
// cannot.
func (m *Matcher) sum(a, b *entity.Entity) (float64, bool) {
	score := 0.0
	for i := range m.Rules {
		r := &m.Rules[i]
		va, vb := r.value(a), r.value(b)
		score = accumulate(score, r.Weight, similarity(r.Kind, va, vb))
		// Early exit: even a perfect score on the remaining rules
		// cannot reach the threshold.
		if score+m.weightAfter(i) < m.Threshold {
			break
		}
	}
	return score, score >= m.Threshold
}

// weightAfter returns the total weight of Rules[i+1:]. A Matcher built
// without New (struct literal) has no table and sums the tail, from the
// back as New does, so both read the same bits.
func (m *Matcher) weightAfter(i int) float64 {
	if m.suffixWeight != nil {
		return m.suffixWeight[i+1]
	}
	rest := 0.0
	for j := len(m.Rules) - 1; j > i; j-- {
		rest += m.Rules[j].Weight
	}
	return rest
}

// value returns the attribute value of e that the rule compares: the
// first MaxChars bytes of it, when that is set.
func (r *Rule) value(e *entity.Entity) string {
	v := e.Attr(r.Attr)
	if r.MaxChars > 0 && len(v) > r.MaxChars {
		return v[:r.MaxChars]
	}
	return v
}

// similarity is one rule's similarity of two values (see Rule.value), every
// distance computed in full. It is small enough to inline, so that an
// ExactMatch rule — one string comparison — pays no call in sum's loop.
func similarity(kind SimKind, va, vb string) float64 {
	if kind == ExactMatch {
		return textsim.Exact(va, vb)
	}
	return kernelSimilarity(kind, va, vb)
}

// kernelSimilarity is similarity for the kinds that run a kernel.
func kernelSimilarity(kind SimKind, va, vb string) float64 {
	switch kind {
	case EditDistance:
		maxLen := max(len(va), len(vb))
		if maxLen == 0 {
			return 1
		}
		return editSimilarity(textsim.Levenshtein(va, vb), maxLen)
	case JaroWinklerSim:
		return textsim.JaroWinkler(va, vb)
	case JaccardQ2:
		return textsim.JaccardQGram(va, vb, 2)
	case TokenCosine:
		return textsim.TokenCosine(va, vb)
	}
	return 0
}

// editSimilarity is the normalized edit similarity of two strings at
// distance d whose longer one has maxLen > 0 bytes.
func editSimilarity(d, maxLen int) float64 {
	return 1 - float64(d)/float64(maxLen)
}

// accumulate adds one rule's weighted similarity to the running sum.
// Score's loop and the last step of decide both go through it, and the
// explicit conversion forbids fusing the multiply into the add, so the
// two see the same float64 bits on every platform.
func accumulate(score, weight, sim float64) float64 {
	return score + float64(weight*sim)
}

// boundSlack is the one tolerance in this package, and it sits on the
// reject side only: decide gives a pair up when its upper bound is more
// than boundSlack below the threshold. The bound is summed in another
// order than the score and a budget is solved from it, so either can be
// off by rounding — a few units of 1e-16 per rule, the weights summing
// to 1 — and the slack keeps a pair that close to the threshold from
// being rejected on it; such a pair goes on to be summed exactly. No
// acceptance ever looks at it.
const boundSlack = 1e-9

// otherKindCost prices a rule that has no edit kernel, per byte of its
// two values, in the unit of an edit rule's cost (one word step of one
// kernel column): sorting q-grams or tokens measures at 2–10 of those a
// byte (BenchmarkJaccardQ2, BenchmarkTokenCosine, BenchmarkLevenshtein).
const otherKindCost = 8

// stackRules is how many rules' per-pair state decide keeps on the
// stack; a Matcher with more allocates it per call.
const stackRules = 16

// decide is Match for a Matcher with a plan: the decision of sum,
// reached in three steps that only ever compute what sum would have.
//
//  1. Every rule gets an upper bound on its similarity that costs no
//     kernel (see bound), and the pair is rejected at once if Σ weight ×
//     bound cannot reach the threshold.
//  2. The rules that are not ExactMatch run cheapest first. An edit
//     kernel gets as its budget the distance past which the total, with
//     every other rule at its current value or bound, falls short; each
//     exact similarity replaces its bound, and the pair is rejected as
//     soon as the total falls short.
//  3. A pair that survives has every similarity exact, and is summed in
//     rule order with the arithmetic and the early exits of sum, so the
//     answer has the bits of Score >= Threshold.
//
// A rejection in steps 1 and 2 is sound because every similarity is at
// most its bound, every weight is positive (New), and boundSlack
// outweighs the rounding of either sum: the score — partial or final —
// is then below the threshold as well.
func (m *Matcher) decide(a, b *entity.Entity) bool {
	p, floor := m.plan, m.Threshold-boundSlack
	var simStack [stackRules]float64
	var costStack [stackRules]int
	sim, cost := simStack[:], costStack[:]
	if len(m.Rules) > stackRules {
		sim, cost = make([]float64, len(m.Rules)), make([]int, len(p.kernel))
	}
	total := m.bound(a, b, sim, cost)
	if total < floor {
		return false
	}

	for range p.kernel {
		k := 0
		for j := range p.kernel {
			if cost[j] < cost[k] {
				k = j
			}
		}
		cost[k] = math.MaxInt // done
		i := p.kernel[k]
		r := &m.Rules[i]
		va, vb := r.value(a), r.value(b)
		others := total - r.Weight*sim[i]
		if r.Kind != EditDistance {
			sim[i] = kernelSimilarity(r.Kind, va, vb)
		} else if maxLen := max(len(va), len(vb)); maxLen > 0 {
			// The total stays at floor or above up to the distance x
			// that solves others + weight × (1 − x/maxLen) = floor; any
			// budget from x up is sound, and the slack in floor covers
			// the rounding of x.
			budget := maxLen
			if x := float64(maxLen) * (1 - (floor-others)/r.Weight); x < float64(maxLen) {
				budget = int(max(x, 0)) + 1
			}
			d := textsim.LevenshteinCapped(va, vb, budget)
			if d > budget {
				return false
			}
			sim[i] = editSimilarity(d, maxLen)
		}
		if total = others + r.Weight*sim[i]; total < floor {
			return false
		}
	}

	score := 0.0
	for i, r := range m.Rules {
		score = accumulate(score, r.Weight, sim[i])
		if score+m.suffixWeight[i+1] < m.Threshold {
			return false
		}
	}
	return score >= m.Threshold
}

// bound is step 1 of decide. It writes to sim (zeroed), by rule, an
// upper bound on each similarity that costs no kernel — the exact value
// for an ExactMatch rule, 1 − |len a − len b|/maxLen for an EditDistance
// rule (a distance is at least the length difference), 1 for the rest —
// and to cost, by position in plan.kernel, an estimate of what the
// exact similarity would cost; it returns Σ weight × bound. It stops as soon
// as that sum is more than boundSlack below the threshold, the rules it
// has not reached still counted at 1.
func (m *Matcher) bound(a, b *entity.Entity, sim []float64, cost []int) float64 {
	floor := m.Threshold - boundSlack
	total := m.suffixWeight[0] // every rule at similarity 1
	for _, i := range m.plan.exact {
		r := &m.Rules[i]
		if r.value(a) == r.value(b) {
			sim[i] = 1
		} else if total -= r.Weight; total < floor {
			return total
		}
	}
	for k, i := range m.plan.kernel {
		r := &m.Rules[i]
		la, lb := len(r.value(a)), len(r.value(b))
		sim[i] = 1
		if r.Kind != EditDistance {
			cost[k] = otherKindCost * (la + lb)
			continue
		}
		if la > lb {
			la, lb = lb, la
		}
		cost[k] = lb * ((la + 63) / 64) // columns × words a column
		if la != lb {
			sim[i] = editSimilarity(lb-la, lb)
			if total -= r.Weight * (1 - sim[i]); total < floor {
				return total
			}
		}
	}
	return total
}
