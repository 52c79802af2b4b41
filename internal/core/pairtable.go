package core

import "math/bits"

// pairTable is a reduce task's resolved-pair set for one tree (§III-A):
// the pairs some block of the tree has already been told to resolve, so
// that a parent block resolved later skips them. A pair is named by its
// two tree slots — the entities' arrival ranks in the tree, which Decide
// reads from the block's slot list anyway — and the set is insert-only
// and answers one question, so it is one flat array of words in one of
// two layouts, chosen per tree when it is reset:
//
//   - a triangular bitmap: bit hi(hi−1)/2 + lo for the slots lo < hi,
//     n(n−1)/2 bits for a tree of n entities, one load per probe;
//   - an open-addressing hash of uint64(lo)<<32|hi with linear probing,
//     where the zero word marks an empty slot (hi ≥ 1, so no key is
//     zero). Its length is whatever the caller's prediction asks for, not
//     a power of two — a flat table that doubled its way up would hold
//     up to twice the memory it needs and, while growing, three times.
//
// The bitmap is taken whenever it is no larger than the hash table the
// prediction needs: small trees, which are most of them, and any tree
// whose window reaches a large share of its pairs. entity.PairSet stays
// the type of results; this is bookkeeping that never leaves the reduce
// task.
type pairTable struct {
	words  []uint64
	hashed bool
	n      int // pairs held
}

// reset empties the table for a tree of `size` entities that is
// predicted to resolve `pairs` pairs before its last visit, in whichever
// layout needs fewer words — for the hash, `pairs` insertions within
// the 3/4 load bound, i.e. never growing — cut out of the array it
// already has when that is long enough, and cleared.
func (t *pairTable) reset(size, pairs int) {
	n := (size*(size-1)/2 + 63) / 64
	t.hashed = false
	if hash := pairs + pairs/3 + 4; hash < n {
		n, t.hashed = hash, true
	}
	if cap(t.words) < n {
		t.words = make([]uint64, n)
	} else {
		t.words = t.words[:n]
		clear(t.words)
	}
	t.n = 0
}

// off leaves the table with no words: a tree that is reset to none is
// not tracked.
func (t *pairTable) off() { t.words = t.words[:0] }

// tracked reports whether the table was reset for the tree at hand.
func (t *pairTable) tracked() bool { return len(t.words) > 0 }

// bit returns the bitmap word and mask of the pair of slots a ≠ b.
func (t *pairTable) bit(a, b int32) (*uint64, uint64) {
	lo, hi := uint(min(a, b)), uint(max(a, b))
	i := hi*(hi-1)/2 + lo
	return &t.words[i>>6], 1 << (i & 63)
}

// slotPairKey is the hash key of the pair of slots a ≠ b.
func slotPairKey(a, b int32) uint64 { return uint64(min(a, b))<<32 | uint64(max(a, b)) }

// home is the slot a key's probe sequence starts at: a Fibonacci
// multiplicative hash (slots are dense small integers; raw keys would
// cluster) scaled onto [0, len(words)) by taking the high word of
// hash × len.
func (t *pairTable) home(k uint64) int {
	hi, _ := bits.Mul64(k*0x9E3779B97F4A7C15, uint64(len(t.words)))
	return int(hi)
}

// probe returns the index of k's word in the hash, or of the empty word
// where k would go: the load bound leaves one.
func (t *pairTable) probe(k uint64) int {
	i := t.home(k)
	for t.words[i] != k && t.words[i] != 0 {
		if i++; i == len(t.words) {
			i = 0
		}
	}
	return i
}

// testAndSet inserts the pair of slots a ≠ b and reports whether it was
// already present.
func (t *pairTable) testAndSet(a, b int32) bool {
	if !t.hashed {
		w, m := t.bit(a, b)
		if *w&m != 0 {
			return true
		}
		*w |= m
		t.n++
		return false
	}
	k := slotPairKey(a, b)
	i := t.probe(k)
	if t.words[i] == k {
		return true
	}
	t.words[i] = k
	if t.n++; t.n > len(t.words)-len(t.words)/4 {
		t.grow()
	}
	return false
}

// has reports whether the pair of slots a ≠ b is present, inserting
// nothing: the probe of a tree's last visit, after which nobody asks.
func (t *pairTable) has(a, b int32) bool {
	if !t.hashed {
		w, m := t.bit(a, b)
		return *w&m != 0
	}
	k := slotPairKey(a, b)
	return t.words[t.probe(k)] == k
}

// grow doubles the hash table. Sizing from the schedule makes this the
// exception: it runs when a tree resolves more pairs than predicted.
func (t *pairTable) grow() {
	old := t.words
	t.words = make([]uint64, 2*len(old))
	for _, k := range old {
		if k != 0 {
			t.words[t.probe(k)] = k
		}
	}
}
