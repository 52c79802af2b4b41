package extsort

// This file implements the stable k-way merge the MapReduce shuffle
// runs over its spilled and shared-directory run files: a tournament
// (loser) tree over pre-sorted sources. Compared with container/heap it
// avoids interface boxing and does exactly one leaf-to-root pass of
// ⌈log₂ k⌉ comparisons per record.
//
// Stability: ties on the comparison function are broken by source
// index, so giving the merger its sources in priority order reproduces
// the order a stable sort of the concatenation would produce.

// Merger merges k pre-sorted sources into one sorted stream. Each
// source is a pull function returning its next record and whether one
// was available; cmp is a three-way comparison (< 0, 0, > 0). Records
// that compare equal surface in source order.
type Merger[T any] struct {
	cmp   func(a, b T) int
	pull  []func() (T, bool)
	heads []T
	done  []bool
	// tree[1..k-1] holds the loser of each internal match; tree[0] the
	// overall winner. Leaf s sits conceptually at node k+s.
	tree []int
	k    int
}

// NewMerger builds a merger over pulls; it immediately pulls one record
// from every source. A nil or empty pulls list yields an empty merge.
func NewMerger[T any](pulls []func() (T, bool), cmp func(a, b T) int) *Merger[T] {
	k := len(pulls)
	m := &Merger[T]{
		cmp:   cmp,
		pull:  pulls,
		heads: make([]T, k),
		done:  make([]bool, k),
		tree:  make([]int, k),
		k:     k,
	}
	for s := 0; s < k; s++ {
		v, ok := pulls[s]()
		m.heads[s] = v
		m.done[s] = !ok
	}
	if k > 0 {
		m.build()
	}
	return m
}

// beats reports whether source a's head wins (sorts before) source b's.
// An exhausted source loses to everything; equal heads go to the lower
// source index (stability).
func (m *Merger[T]) beats(a, b int) bool {
	if m.done[a] || m.done[b] {
		return !m.done[a]
	}
	if c := m.cmp(m.heads[a], m.heads[b]); c != 0 {
		return c < 0
	}
	return a < b
}

// build plays the full tournament, filling tree with losers and tree[0]
// with the winner.
func (m *Merger[T]) build() {
	// winners[n] is the winner of the subtree rooted at internal node n;
	// computed bottom-up so each node stores its match's loser.
	winners := make([]int, 2*m.k)
	for s := 0; s < m.k; s++ {
		winners[m.k+s] = s
	}
	for n := m.k - 1; n >= 1; n-- {
		a, b := winners[2*n], winners[2*n+1]
		if m.beats(a, b) {
			winners[n], m.tree[n] = a, b
		} else {
			winners[n], m.tree[n] = b, a
		}
	}
	m.tree[0] = winners[1]
}

// Next returns the smallest remaining record, pulling its source's
// replacement and replaying that leaf's matches up the tree.
func (m *Merger[T]) Next() (T, bool) {
	var zero T
	if m.k == 0 {
		return zero, false
	}
	s := m.tree[0]
	if m.done[s] {
		return zero, false
	}
	out := m.heads[s]
	v, ok := m.pull[s]()
	m.heads[s] = v
	m.done[s] = !ok
	// Replay from leaf k+s to the root: the new head competes against
	// each stored loser; the loser of every match stays at the node.
	winner := s
	for n := (m.k + s) / 2; n >= 1; n /= 2 {
		if m.beats(m.tree[n], winner) {
			winner, m.tree[n] = m.tree[n], winner
		}
	}
	m.tree[0] = winner
	return out, true
}
