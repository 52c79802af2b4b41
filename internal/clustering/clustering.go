// Package clustering implements the final grouping step of a
// traditional ER pipeline (§II-A of the paper): turning the resolved
// duplicate pairs into disjoint clusters, each representing one
// real-world object. Transitive closure via union-find is provided,
// which is the technique the paper names first; a pairs-level
// precision/recall/F1 report is included for evaluation.
package clustering

import (
	"sort"

	"proger/internal/entity"
)

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the set representative of x.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were
// previously distinct.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Same reports whether a and b are in the same set.
func (u *UnionFind) Same(a, b int32) bool { return u.Find(a) == u.Find(b) }

// TransitiveClosure groups n entities into disjoint clusters given the
// identified duplicate pairs. Clusters are returned with members in ID
// order and clusters ordered by their smallest member; singletons are
// included, so the result is a full partition of [0, n).
func TransitiveClosure(n int, dups entity.PairSet) [][]entity.ID {
	u := NewUnionFind(n)
	for p := range dups {
		if int(p.Lo) < n && int(p.Hi) < n {
			u.Union(int32(p.Lo), int32(p.Hi))
		}
	}
	groups := map[int32][]entity.ID{}
	for i := 0; i < n; i++ {
		root := u.Find(int32(i))
		groups[root] = append(groups[root], entity.ID(i))
	}
	out := make([][]entity.ID, 0, len(groups))
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// PairMetrics is a pairs-level evaluation of an identified duplicate
// set against ground truth.
type PairMetrics struct {
	TruePositives  int64
	FalsePositives int64
	FalseNegatives int64
	Precision      float64
	Recall         float64
	F1             float64
}

// EvaluatePairs scores the identified pairs against a ground-truth
// oracle with totalTrue true pairs.
func EvaluatePairs(found entity.PairSet, isDup func(entity.Pair) bool, totalTrue int64) PairMetrics {
	var m PairMetrics
	for p := range found {
		if isDup(p) {
			m.TruePositives++
		} else {
			m.FalsePositives++
		}
	}
	m.FalseNegatives = totalTrue - m.TruePositives
	if m.FalseNegatives < 0 {
		m.FalseNegatives = 0
	}
	if m.TruePositives+m.FalsePositives > 0 {
		m.Precision = float64(m.TruePositives) / float64(m.TruePositives+m.FalsePositives)
	}
	if totalTrue > 0 {
		m.Recall = float64(m.TruePositives) / float64(totalTrue)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}
