package mechanism

import "proger/internal/entity"

// SN is the Sorted Neighbor algorithm with the hint of Whang et al. [5]
// (§II-B): sort the block's entities on the blocking attribute, then
// resolve pairs in non-decreasing order of rank distance — all pairs at
// distance 1 first, then distance 2, and so on up to the window size w.
// The intuition: the closer two entities sit in the sorted list, the
// more likely they are duplicates, so small distances front-load the
// duplicate discoveries.
type SN struct{}

// Name implements Mechanism.
func (SN) Name() string { return "SN" }

// ResolveBlock implements Mechanism.
func (SN) ResolveBlock(env *Env, ents []*entity.Entity, window int) VisitStats {
	var st VisitStats
	n := len(ents)
	if n < 2 {
		return st
	}
	sc := sortScratches.Get().(*sortScratch)
	defer sortScratches.Put(sc)
	order := env.sortEntities(ents, sc)
	if window < 2 {
		window = 2
	}
	for d := 1; d < window && d < n; d++ {
		for i := 0; i+d < n; i++ {
			if !env.resolvePair(ents, order[i], order[i+d], &st) {
				return st
			}
		}
	}
	return st
}
