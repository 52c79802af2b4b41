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
	"sync"

	"proger/internal/costmodel"
	"proger/internal/entity"
	"proger/internal/normkey"
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

// DistinctThreshold returns the paper's Th(X) stopping condition: the
// visit terminates once th distinct (non-duplicate) pairs have been
// resolved (§III-A).
func DistinctThreshold(th int64) StopFunc {
	return func(st *VisitStats) bool { return int64(st.Distinct) >= th }
}

// defaultPopcornWindow is the trailing-comparison window a Popcorn
// with zero Window measures its duplicate rate over.
const defaultPopcornWindow = 200

// Popcorn implements the popcorn scheme of [5]: terminate when the rate
// of newly identified duplicate pairs over the trailing Window
// comparisons drops below Threshold. The zero Window means
// defaultPopcornWindow.
type Popcorn struct {
	Threshold float64
	Window    int

	outcomes []bool // ring buffer of recent outcomes
	pos      int
	filled   bool
	dups     int
}

// Stop is the popcorn StopFunc. The environment must also route
// outcomes to Observe (Env does this when Observer is set).
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
			w = defaultPopcornWindow
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

// Env couples a mechanism invocation to its surrounding reduce task.
type Env struct {
	// SortAttr is the attribute index used to sort the block's entities
	// (the paper sorts on the attribute the blocking was performed on,
	// §VI-A3).
	SortAttr int
	// Match applies the resolve function and reports co-reference.
	Match func(a, b *entity.Entity) bool
	// SortKeys, when non-nil, is parallel to the ents given to
	// ResolveBlock: strings.ToLower of each entity's SortAttr, which a
	// caller that resolves the same entities block after block derives
	// once. Nil means the mechanism derives them.
	SortKeys []string
	// Decide rules on each candidate pair before resolution; i and j are
	// the positions, in the ents given to ResolveBlock, of the pair's two
	// entities (in either order), so per-entity state the caller keeps in
	// slices parallel to ents needs no lookup. Nil means always Resolve.
	Decide func(p entity.Pair, i, j int) Decision
	// Emit reports each resolved pair's outcome.
	Emit func(p entity.Pair, isDup bool)
	// Charge accounts simulated cost.
	Charge func(costmodel.Units)
	// Stop terminates the visit; nil never stops (full resolve).
	Stop StopFunc
	// Observer, when non-nil, receives every resolution outcome
	// (the popcorn scheme's evidence stream).
	Observer func(isDup bool)
	// Cost is the cost model for pricing sort/compare/skip operations.
	Cost costmodel.Model
}

func (env *Env) decide(p entity.Pair, i, j int32) Decision {
	if env.Decide == nil {
		return Resolve
	}
	return env.Decide(p, int(i), int(j))
}

func (env *Env) stop(st *VisitStats) bool {
	if env.Stop == nil {
		return false
	}
	return env.Stop(st)
}

// resolvePair runs the match function on the candidate pair at
// positions i and j of ents, doing all bookkeeping. It returns false
// when the visit must terminate.
func (env *Env) resolvePair(ents []*entity.Entity, i, j int32, st *VisitStats) bool {
	a, b := ents[i], ents[j]
	p := entity.MakePair(a.ID, b.ID)
	switch env.decide(p, i, j) {
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

// sortScratch is what a mechanism's ResolveBlock works in: sortEntities
// sorts in items and tmp (a normkey.Item per entity, the ord being the 8
// key bytes past the prefix the whole block shares) and answers in
// order, lowers keys into lowered, and PSNM keeps its visited bits and
// promoted candidates here. It holds no pointer, so nothing of a block
// stays behind in it.
type sortScratch struct {
	items, tmp []normkey.Item
	order      []int32
	lowered    []byte
	ends       []int32
	visited    []uint64
	hot        []cand
}

// sortScratches lends a mechanism its sortScratch for the length of one
// ResolveBlock: blocks are resolved by the ten thousand, two at a time.
var sortScratches = sync.Pool{New: func() any { return new(sortScratch) }}

// radixMin is the block size from which sortEntities radix-sorts: below
// it the radix sort's fixed cost — eight 256-entry count tables, a pass
// per differing key byte — outweighs the comparator's n log n compares.
const radixMin = 128

// sortEntities charges the hint cost and returns the positions of ents
// (two or more) in sort order: by lowercased sort attribute, ties broken
// by ID for determinism. What is sorted is a pointer-free (ord,
// position) array — under prefix blocking the shared prefix is at least
// the block's key — and the keys themselves are compared only where
// ords tie. The order is cut from sc and valid until sc is put back.
func (env *Env) sortEntities(ents []*entity.Entity, sc *sortScratch) []int32 {
	env.Charge(env.Cost.HintCost(len(ents)))
	keys := env.SortKeys
	if keys == nil {
		keys = env.lowerKeys(ents, sc)
	}
	skip := len(keys[0])
	for _, k := range keys[1:] {
		skip = normkey.CommonPrefix(keys[0], k, skip)
	}
	n := len(ents)
	if cap(sc.items) < n {
		sc.items, sc.tmp = make([]normkey.Item, n), make([]normkey.Item, n)
	}
	items := sc.items[:n]
	for i, k := range keys {
		items[i] = normkey.Item{Ord: normkey.Ord(k, skip), Idx: int32(i)}
	}
	switch idOrder := inIDOrder(ents); {
	case idOrder && n >= radixMin:
		items = sc.radixSort(items, keys, skip)
	case idOrder:
		compareSort(items, keys, skip, nil)
	default:
		compareSort(items, keys, skip, ents)
	}
	order := slices.Grow(sc.order[:0], n)[:n]
	for i, it := range items {
		order[i] = it.Idx
	}
	sc.order = order
	return order
}

// inIDOrder reports whether a block's positions are in ascending ID
// order — the order the shuffle delivers a block's records in, (key, map
// index, emission order) over map tasks that read ascending IDs — so
// that positions break ties as IDs do: a stable sort by key leaves equal
// keys in ID order. Only such a block, and not a small one, takes the
// radix sort.
func inIDOrder(ents []*entity.Entity) bool {
	for i := 1; i < len(ents); i++ {
		if ents[i-1].ID >= ents[i].ID {
			return false
		}
	}
	return true
}

// radixSort is the shuffle's run sort (mapreduce's runSorter.sortInto):
// a stable radix sort on ord, then, where ords tie but the keys are not
// all one key, that run sorted by (ord, key past skip, position) — the
// order a stable re-sort by key leaves. It returns the sorted items, in
// items or in sc.tmp.
func (sc *sortScratch) radixSort(items []normkey.Item, keys []string, skip int) []normkey.Item {
	items = normkey.RadixSort(items, sc.tmp)
	for lo := 0; lo < len(items); {
		hi := lo + 1
		oneKey := true
		for hi < len(items) && items[hi].Ord == items[lo].Ord {
			oneKey = oneKey && keys[items[hi].Idx] == keys[items[lo].Idx]
			hi++
		}
		if !oneKey {
			compareSort(items[lo:hi], keys, skip, nil)
		}
		lo = hi
	}
	return items
}

// compareSort sorts items by (ord, key past skip, ID), the IDs read from
// ents — or, with ents nil, positions standing in for them, for a block
// in ID order.
func compareSort(items []normkey.Item, keys []string, skip int, ents []*entity.Entity) {
	slices.SortFunc(items, func(a, b normkey.Item) int {
		if a.Ord != b.Ord {
			return cmp.Compare(a.Ord, b.Ord)
		}
		if c := strings.Compare(keys[a.Idx][skip:], keys[b.Idx][skip:]); c != 0 {
			return c
		}
		if ents == nil {
			return cmp.Compare(a.Idx, b.Idx)
		}
		return cmp.Compare(ents[a.Idx].ID, ents[b.Idx].ID)
	})
}

// lowerKeys derives the sort keys of a block whose caller supplied none:
// strings.ToLower of each entity's SortAttr, lowered into one string.
func (env *Env) lowerKeys(ents []*entity.Entity, sc *sortScratch) []string {
	buf, ends := sc.lowered[:0], sc.ends[:0]
	for _, e := range ents {
		buf = normkey.AppendLower(buf, e.Attr(env.SortAttr))
		ends = append(ends, int32(len(buf)))
	}
	s, keys := string(buf), make([]string, len(ents))
	at := 0
	for i, end := range ends {
		keys[i], at = s[at:end], int(end)
	}
	sc.lowered, sc.ends = buf, ends
	return keys
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
