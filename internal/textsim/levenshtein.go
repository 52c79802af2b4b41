// Package textsim implements the string-similarity primitives used by
// the resolve/match function: edit distance (bit-parallel, with a
// distance budget), normalized edit similarity, Jaro-Winkler, q-gram
// Jaccard, and exact matching. All functions operate on bytes (the
// generators emit ASCII), which keeps cost accounting simple and
// deterministic.
package textsim

import "sync"

// Levenshtein returns the exact edit distance (insert/delete/substitute,
// all unit cost) between a and b.
func Levenshtein(a, b string) int {
	return editDistance(a, b, max(len(a), len(b)))
}

// LevenshteinCapped returns min(Levenshtein(a,b), budget+1): the exact
// distance when it is at most budget, and budget+1 — "more than
// budget" — otherwise, abandoning the computation as soon as the
// budget provably cannot be met. A negative budget counts as 0. It is
// the workhorse for thresholded matching.
func LevenshteinCapped(a, b string, budget int) int {
	return editDistance(a, b, max(budget, 0))
}

// editDistance is the one edit-distance kernel: Myers' bit-parallel
// algorithm in Hyyrö's formulation for the global distance. The
// shorter string p (length m) is the pattern, laid out down the rows
// of the dynamic-programming matrix, the longer string t (length n)
// the text; one column of the matrix is held as two bit-vectors of
// vertical deltas (pv: +1, mv: −1) and a column step costs O(⌈m/64⌉)
// word operations instead of m cells. score tracks D[m][j], the bottom
// cell of the current column.
//
// It returns the exact distance d when d ≤ budget and budget+1
// otherwise. Two facts let it stop early: d ≥ n−m, so a length
// difference above the budget is rejected before a byte is read; and
// D[m][n] ≥ D[m][j] − (n−j), since one more column lowers the bottom
// cell by at most one, so the scan stops once score − columnsLeft
// exceeds the budget. budget must be ≥ 0; budget ≥ n never cuts
// anything off.
func editDistance(a, b string, budget int) int {
	if a == b {
		return 0
	}
	p, t := a, b
	if len(p) > len(t) {
		p, t = t, p
	}
	m, n := len(p), len(t)
	if n-m > budget {
		return budget + 1
	}
	if m == 0 {
		return n
	}
	if m <= 64 {
		return editDistanceWord(p, t, budget)
	}
	return editDistanceBlocks(p, t, budget)
}

// editDistanceWord is the kernel for patterns of at most 64 bytes: the
// whole column fits one word and the match table lives on the stack.
func editDistanceWord(p, t string, budget int) int {
	var peq [256]uint64
	for i := 0; i < len(p); i++ {
		peq[p[i]] |= 1 << uint(i)
	}
	m, n := len(p), len(t)
	last := uint64(1) << uint(m-1)
	pv, mv := ^uint64(0), uint64(0)
	score := m
	for j := 0; j < n; j++ {
		eq := peq[t[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// Row 0 of the global matrix is 0,1,2,…: its horizontal delta
		// is always +1, shifted in at the bottom of ph.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
		if score-(n-1-j) > budget {
			return budget + 1
		}
	}
	return score
}

// blockScratch is the per-call working memory of editDistanceBlocks.
// Pooling it keeps the blocked path allocation-free in steady state
// and safe for concurrent reducers (each call takes its own scratch).
type blockScratch struct {
	peq    []uint64 // 256 × words match table, row-major by byte value
	pv, mv []uint64 // vertical delta vectors, one word per block
}

var blockPool = sync.Pool{New: func() any { return new(blockScratch) }}

// editDistanceBlocks is the kernel for patterns longer than 64 bytes:
// the column is cut into ⌈m/64⌉ blocks and each column step runs the
// word recurrence block by block, carrying the horizontal delta
// (−1, 0 or +1) that leaves the top bit of one block into the bottom
// of the next. Bits of the last block above the pattern are garbage
// that never flows downward (carries and shifts only move up), so the
// score reads bit (m−1) mod 64 of that block instead of its top bit.
func editDistanceBlocks(p, t string, budget int) int {
	m, n := len(p), len(t)
	words := (m + 63) / 64
	sc := blockPool.Get().(*blockScratch)
	defer blockPool.Put(sc)
	if cap(sc.peq) < 256*words {
		sc.peq = make([]uint64, 256*words)
		sc.pv = make([]uint64, words)
		sc.mv = make([]uint64, words)
	}
	peq, pv, mv := sc.peq[:256*words], sc.pv[:words], sc.mv[:words]
	clear(peq)
	for i := 0; i < m; i++ {
		peq[int(p[i])*words+i>>6] |= 1 << uint(i&63)
	}
	for w := range pv {
		pv[w], mv[w] = ^uint64(0), 0
	}
	lastShift := uint(m-1) & 63
	score := m
	for j := 0; j < n; j++ {
		eqs := peq[int(t[j])*words:][:words]
		// hp/hm: the horizontal delta entering the next block is +1/−1.
		// Row 0 of the global matrix contributes +1 to block 0.
		hp, hm := uint64(1), uint64(0)
		var ph, mh uint64 // horizontal deltas of the block just stepped
		for w, eq := range eqs {
			pvw, mvw := pv[w], mv[w]
			xv := eq | mvw
			eq |= hm
			xh := (((eq & pvw) + pvw) ^ pvw) | eq
			ph = mvw | ^(xh | pvw)
			mh = pvw & xh
			phOut, mhOut := ph<<1|hp, mh<<1|hm
			hp, hm = ph>>63, mh>>63
			pv[w] = mhOut | ^(xv | phOut)
			mv[w] = phOut & xv
		}
		score += int(ph>>lastShift&1) - int(mh>>lastShift&1)
		if score-(n-1-j) > budget {
			return budget + 1
		}
	}
	return score
}
