package mechanism

import (
	"slices"

	"proger/internal/entity"
)

// cand is a PSNM candidate pair: the entities at sort ranks i and i+d.
type cand struct{ i, d int }

// PSNM is the Progressive Sorted Neighborhood Method of Papenbrock,
// Heise & Naumann [6]. Like SN it sorts the block and favors small rank
// distances, but it additionally *adapts*: whenever the pair (i, i+d)
// turns out to be a duplicate, the neighborhood around position i is
// promising, so the pair (i, i+d+1) is promoted ahead of the systematic
// sweep. This "expand around hits" strategy front-loads duplicates in
// clustered regions of the sort order, which is where PSNM beats plain
// SN on skewed data.
type PSNM struct{}

// Name implements Mechanism.
func (PSNM) Name() string { return "PSNM" }

// ResolveBlock implements Mechanism.
func (PSNM) ResolveBlock(env *Env, ents []*entity.Entity, window int) VisitStats {
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
	maxD := window - 1
	if maxD > n-1 {
		maxD = n - 1
	}

	// visited has one bit per candidate (i, d), d ∈ [1, maxD], at index
	// (d−1)·n + i. A block visit touches most of them, so a flat bitset
	// beats a map that grows by an entry per pair; it is borrowed with
	// the sort scratch, as is hot.
	words := (n*maxD + 63) / 64
	visited := slices.Grow(sc.visited[:0], words)[:words]
	clear(visited)
	// hot holds promoted candidates (LIFO: most recent hit expands
	// first); the systematic sweep fills in everything else.
	hot := sc.hot[:0]
	defer func() { sc.visited, sc.hot = visited, hot[:0] }()

	process := func(c cand) bool {
		if c.d > maxD || c.i+c.d >= n {
			return true
		}
		bit := (c.d-1)*n + c.i
		if visited[bit>>6]&(1<<uint(bit&63)) != 0 {
			return true
		}
		visited[bit>>6] |= 1 << uint(bit&63)
		dups := st.Dups
		keep := env.resolvePair(ents, order[c.i], order[c.i+c.d], &st)
		if st.Dups > dups {
			// Expand the hit's neighborhood in both directions.
			hot = append(hot, cand{i: c.i, d: c.d + 1})
			if c.i > 0 {
				hot = append(hot, cand{i: c.i - 1, d: c.d + 1})
			}
		}
		return keep
	}

	for d := 1; d <= maxD; d++ {
		for i := 0; i+d < n; i++ {
			// Drain promoted candidates before each systematic step.
			for len(hot) > 0 {
				c := hot[len(hot)-1]
				hot = hot[:len(hot)-1]
				if !process(c) {
					return st
				}
			}
			if !process(cand{i: i, d: d}) {
				return st
			}
		}
	}
	return st
}
