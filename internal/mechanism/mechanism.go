// Package mechanism implements the pluggable progressive mechanisms M
// that resolve a single block (§II-B): the Sorted Neighbor algorithm
// with the hint of Whang et al. [5], and the Progressive Sorted
// Neighborhood Method (PSNM) of Papenbrock et al. [6] — plus the
// stopping conditions that drive them (the popcorn scheme of [5] and
// the distinct-pair termination threshold Th of §III-A).
//
// A mechanism is invoked on one block in isolation. All coupling to the
// surrounding reduce task — redundancy checks, already-resolved-pair
// skips, result emission, cost accounting — happens through the Env
// callbacks, which is what lets the same mechanism drive both the
// paper's approach and the Basic baseline.
package mechanism

import (
	"cmp"
	"slices"
	"strings"

	"proger/internal/costmodel"
	"proger/internal/entity"
)

// Decision is the verdict of Env.Decide for a candidate pair.
type Decision int

const (
	// Resolve: apply the match function to this pair now.
	Resolve Decision = iota
	// SkipResolved: the pair was already resolved earlier in this tree
	// (incremental parent resolution, §III-A).
	SkipResolved
	// SkipNotResponsible: another tree is responsible for this pair
	// (redundancy-free resolution, §V).
	SkipNotResponsible
)

// VisitStats accumulates what happened during one mechanism invocation
// on one block.
type VisitStats struct {
	// Compared counts match-function applications in this visit.
	Compared int
	// Dups and Distinct partition Compared by outcome.
	Dups     int
	Distinct int
	// Skipped counts pairs skipped by Decide.
	Skipped int
}

// StopFunc is consulted after every resolved pair; returning true
// terminates the visit.
type StopFunc func(*VisitStats) bool

// NeverStop runs the mechanism to exhaustion (full resolve; also the
// Basic F configuration of §VI-B1).
func NeverStop(*VisitStats) bool { return false }

// DistinctThreshold returns the paper's Th(X) stopping condition: the
// visit terminates once th distinct (non-duplicate) pairs have been
// resolved (§III-A).
func DistinctThreshold(th int64) StopFunc {
	return func(st *VisitStats) bool { return int64(st.Distinct) >= th }
}

// Popcorn implements the popcorn scheme of [5]: terminate when the rate
// of newly identified duplicate pairs over the trailing Window
// comparisons drops below Threshold. The zero Window defaults to 200.
type Popcorn struct {
	Threshold float64
	Window    int

	outcomes []bool // ring buffer of recent outcomes
	pos      int
	filled   bool
	dups     int
}

// NewPopcorn builds a popcorn stopper with the default window.
func NewPopcorn(threshold float64) *Popcorn {
	return &Popcorn{Threshold: threshold, Window: 200}
}

// Stop implements StopFunc semantics; feed it after each resolution via
// Func().
func (p *Popcorn) Stop(st *VisitStats) bool {
	// The rate is maintained by Observe; Stop only applies the test
	// once a full window of evidence exists.
	if !p.filled {
		return false
	}
	rate := float64(p.dups) / float64(len(p.outcomes))
	return rate < p.Threshold
}

// Observe records one comparison outcome.
func (p *Popcorn) Observe(isDup bool) {
	if p.outcomes == nil {
		w := p.Window
		if w <= 0 {
			w = 200
		}
		p.outcomes = make([]bool, w)
	}
	if p.filled && p.outcomes[p.pos] {
		p.dups--
	}
	p.outcomes[p.pos] = isDup
	if isDup {
		p.dups++
	}
	p.pos++
	if p.pos == len(p.outcomes) {
		p.pos = 0
		p.filled = true
	}
}

// Func adapts the popcorn stopper to a StopFunc. The environment must
// also route outcomes to Observe (Env does this automatically when
// Observer is set).
func (p *Popcorn) Func() StopFunc { return p.Stop }

// Env couples a mechanism invocation to its surrounding reduce task.
type Env struct {
	// SortAttr is the attribute index used to sort the block's entities
	// (the paper sorts on the attribute the blocking was performed on,
	// §VI-A3).
	SortAttr int
	// Match applies the resolve function and reports co-reference.
	Match func(a, b *entity.Entity) bool
	// Decide rules on each candidate pair before resolution; nil means
	// always Resolve.
	Decide func(entity.Pair) Decision
	// Emit reports each resolved pair's outcome.
	Emit func(p entity.Pair, isDup bool)
	// Charge accounts simulated cost.
	Charge func(costmodel.Units)
	// Stop terminates the visit; nil means NeverStop.
	Stop StopFunc
	// Observer, when non-nil, receives every resolution outcome
	// (the popcorn scheme's evidence stream).
	Observer func(isDup bool)
	// Cost is the cost model for pricing sort/compare/skip operations.
	Cost costmodel.Model
}

func (env *Env) decide(p entity.Pair) Decision {
	if env.Decide == nil {
		return Resolve
	}
	return env.Decide(p)
}

func (env *Env) stop(st *VisitStats) bool {
	if env.Stop == nil {
		return false
	}
	return env.Stop(st)
}

// resolvePair runs the match function on one candidate pair, doing all
// bookkeeping. It returns false when the visit must terminate.
func (env *Env) resolvePair(a, b *entity.Entity, st *VisitStats) bool {
	p := entity.MakePair(a.ID, b.ID)
	switch env.decide(p) {
	case SkipResolved, SkipNotResponsible:
		env.Charge(env.Cost.SkipPair)
		st.Skipped++
		return true
	}
	env.Charge(env.Cost.PairCompare)
	isDup := env.Match(a, b)
	st.Compared++
	if isDup {
		st.Dups++
	} else {
		st.Distinct++
	}
	if env.Observer != nil {
		env.Observer(isDup)
	}
	env.Emit(p, isDup)
	return !env.stop(st)
}

// sortEntities orders the block's entities by the lowercased sort
// attribute (ties broken by ID for determinism) and charges the hint
// cost. Each key is lowercased once, not on every comparison.
func (env *Env) sortEntities(ents []*entity.Entity) []*entity.Entity {
	type keyed struct {
		key string
		e   *entity.Entity
	}
	env.Charge(env.Cost.HintCost(len(ents)))
	keys := make([]keyed, len(ents))
	for i, e := range ents {
		keys[i] = keyed{strings.ToLower(e.Attr(env.SortAttr)), e}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.e.ID, b.e.ID)
	})
	sorted := make([]*entity.Entity, len(keys))
	for i, k := range keys {
		sorted[i] = k.e
	}
	return sorted
}

// Mechanism resolves one block progressively: it must identify
// duplicate pairs as early as possible within its pair-generation
// budget (the window), honoring Env's decisions and stop condition.
type Mechanism interface {
	// Name identifies the mechanism in configs and reports.
	Name() string
	// ResolveBlock processes the block's entities with the given window
	// parameter and returns the visit statistics.
	ResolveBlock(env *Env, ents []*entity.Entity, window int) VisitStats
}
