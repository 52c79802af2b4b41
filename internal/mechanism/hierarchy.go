package mechanism

import "proger/internal/entity"

// Hierarchy is the hierarchical-partitioning hint of Whang et al. [5]
// used directly as a mechanism M, as §III-A notes is possible: the
// block's sorted order is recursively halved into a hierarchy of
// partitions, and pairs are resolved deepest-partition-first — all
// pairs inside each smallest partition, then the pairs whose lowest
// common ancestor is the next level up (crossing a midpoint), and so
// on. Like SN it front-loads sort-order-close pairs, but in chunked
// batches that respect partition locality.
type Hierarchy struct {
	// LeafSize is the partition size at which recursion stops and all
	// pairs are resolved exhaustively; defaults to 4.
	LeafSize int
}

// Name implements Mechanism.
func (Hierarchy) Name() string { return "HierarchyHint" }

// ResolveBlock implements Mechanism. The window caps the sorted-rank
// distance of cross-partition pairs, as in SN.
func (h Hierarchy) ResolveBlock(env *Env, ents []*entity.Entity, window int) VisitStats {
	var st VisitStats
	n := len(ents)
	if n < 2 {
		return st
	}
	leaf := h.LeafSize
	if leaf < 2 {
		leaf = 4
	}
	sc := sortScratches.Get().(*sortScratch)
	defer sortScratches.Put(sc)
	order := env.sortEntities(ents, sc)
	if window < 2 {
		window = 2
	}
	h.resolveRange(env, ents, order, 0, n, leaf, window, &st)
	return st
}

// resolveRange handles the partition [lo, hi): children first (deepest
// partitions), then the cross-midpoint pairs owned by this node.
// Returns false when the visit must terminate.
func (h Hierarchy) resolveRange(env *Env, ents []*entity.Entity, order []int32, lo, hi, leaf, window int, st *VisitStats) bool {
	size := hi - lo
	if size < 2 {
		return true
	}
	if size <= leaf {
		// Exhaustive leaf resolution, small distances first.
		for d := 1; d < size; d++ {
			for i := lo; i+d < hi; i++ {
				if !env.resolvePair(ents, order[i], order[i+d], st) {
					return false
				}
			}
		}
		return true
	}
	mid := lo + size/2
	if !h.resolveRange(env, ents, order, lo, mid, leaf, window, st) {
		return false
	}
	if !h.resolveRange(env, ents, order, mid, hi, leaf, window, st) {
		return false
	}
	// Pairs whose LCA is this node: i < mid ≤ j, within the window,
	// in non-decreasing distance order.
	for d := 1; d < window; d++ {
		for i := lo; i < mid; i++ {
			j := i + d
			if j < mid || j >= hi {
				continue
			}
			if !env.resolvePair(ents, order[i], order[j], st) {
				return false
			}
		}
	}
	return true
}
