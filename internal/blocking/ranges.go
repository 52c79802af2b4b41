package blocking

import (
	"bytes"
	"slices"

	"proger/internal/entity"
)

// rangeBuilder computes the statistics of one main block's tree — every
// block's size, child keys and uncovered-pair count — from keys alone:
// per member the family's deepest-level key and the main keys of the
// dominating families, never an entity.
//
// Keys of one family nest by prefix (Family.Shallower), and truncating
// to a prefix keeps byte order, so once the members are sorted by
// deepest key the members of every block at every level are one
// contiguous range, the children of a block are consecutive sub-ranges,
// and they appear in the byte order of their keys — the order
// sort.Strings gives child keys. One sort per main block therefore
// yields the whole tree; nothing is grouped through a hash map.
//
// A builder is scratch for one main block at a time (reset, member per
// member, build); a task reuses one for all its blocks, which is also
// what keeps domID small: a main key is interned once per task. Builders
// are borrowed from treeBuilders and go back through release. A main
// block has fewer than 2³¹ members (they arrive as one in-memory slice).
type rangeBuilder struct {
	fam    *Family
	famIdx int
	// nd is the number of dominating families whose main keys members
	// carry: famIdx on Job 1's reduce side, 0 when only the tree's
	// shape is wanted (Uncov ≡ 0).
	nd int

	keys []byte // the members' deepest-level keys, back to back
	ends []int  // member i's key is keys[ends[i]:ends[i+1]]; ends[0] is 0
	// doms[i*nd+f] stands for member i's main key under dominating
	// family f: equal ids, equal keys.
	doms  []uint32
	domID []map[string]uint32
	order []int32 // member indices, sorted by deepest key

	// The blocks being visited, root to current: their children's keys
	// and range ends, stacked.
	childKeys []string
	childEnds []int
	stat      BlockStat

	// Scratch of uncov: the members of a range, per dominating family
	// the members of one group packed as id<<32 | member, and a zeroed
	// counter per id of the last dominating family.
	base  []uint64
	group [][]uint64
	count []int32
}

// reset starts a main block of family famIdx whose members carry the
// main keys of nd dominating families.
func (rb *rangeBuilder) reset(fam *Family, famIdx, nd int) {
	rb.fam, rb.famIdx, rb.nd = fam, famIdx, nd
	rb.keys, rb.ends, rb.doms = rb.keys[:0], append(rb.ends[:0], 0), rb.doms[:0]
	for len(rb.domID) < nd {
		rb.domID = append(rb.domID, map[string]uint32{})
		rb.group = append(rb.group, nil)
	}
}

// release puts the builder back into treeBuilders with every string it
// held dropped — the interned main keys, the child keys, the last
// block's statistics — so that the pool keeps the arrays and nothing of
// the data. The id tables keep their buckets; count is all zeros between
// builds and stays as long as it is.
func (rb *rangeBuilder) release() {
	for _, ids := range rb.domID {
		clear(ids)
	}
	clear(rb.childKeys[:cap(rb.childKeys)])
	rb.fam, rb.stat = nil, BlockStat{}
	treeBuilders.Put(rb)
}

// member adds a member whose deepest-level key the caller has just
// appended to rb.keys; domKeys are its main keys under the nd
// dominating families.
func (rb *rangeBuilder) member(domKeys [][]byte) {
	rb.ends = append(rb.ends, len(rb.keys))
	for f, k := range domKeys[:rb.nd] {
		id, ok := rb.domID[f][string(k)]
		if !ok {
			id = uint32(len(rb.domID[f]))
			rb.domID[f][string(k)] = id
		}
		rb.doms = append(rb.doms, id)
	}
}

// key returns member i's deepest-level key.
func (rb *rangeBuilder) key(i int32) []byte { return rb.keys[rb.ends[i]:rb.ends[i+1]] }

// dom returns the id of the family-f main key of the member in m's low
// word.
func (rb *rangeBuilder) dom(m uint64, f int) uint32 { return rb.doms[int(uint32(m))*rb.nd+f] }

// build visits the tree's blocks preorder — a block before its
// children, children in key order, which is Tree.Blocks' order — with
// each block's statistics. The BlockStat handed to visit, child keys
// included, is scratch that the next visit overwrites.
func (rb *rangeBuilder) build(rootKey string, visit func(*BlockStat)) {
	if rb.nd > 0 && len(rb.count) < len(rb.domID[rb.nd-1]) {
		// (Twice what is needed: the table of ids grows with the task.)
		rb.count = make([]int32, 2*len(rb.domID[rb.nd-1]))
	}
	rb.order = rb.order[:0]
	for i := range rb.ends[1:] {
		rb.order = append(rb.order, int32(i))
	}
	if rb.fam.Levels() > 1 { // (a tree of one block has no ranges to find)
		slices.SortFunc(rb.order, func(a, b int32) int { return bytes.Compare(rb.key(a), rb.key(b)) })
	}
	rb.block(1, 0, len(rb.order), rootKey, visit)
}

// block visits the block of the given level and key, whose members are
// order[lo:hi], and then its subtree.
func (rb *rangeBuilder) block(level, lo, hi int, key string, visit func(*BlockStat)) {
	first := len(rb.childKeys)
	if level < rb.fam.Levels() {
		n := rb.fam.PrefixLens[level] // key length one level down
		for i := lo; i < hi; {
			k := truncate(rb.key(rb.order[i]), n)
			j := i + 1
			for j < hi && bytes.Equal(truncate(rb.key(rb.order[j]), n), k) {
				j++
			}
			rb.childKeys, rb.childEnds = append(rb.childKeys, string(k)), append(rb.childEnds, j)
			i = j
		}
	}
	rb.stat = BlockStat{
		ID:        BlockID{Family: int8(rb.famIdx), Level: int8(level), Key: key},
		Size:      hi - lo,
		Uncov:     rb.uncov(lo, hi),
		ChildKeys: rb.childKeys[first:],
	}
	visit(&rb.stat)
	for c := first; c < len(rb.childKeys); c++ {
		rb.block(level+1, lo, rb.childEnds[c], rb.childKeys[c], visit)
		lo = rb.childEnds[c]
	}
	rb.childKeys, rb.childEnds = rb.childKeys[:first], rb.childEnds[:first]
}

// signed gives pairs the sign of an inclusion–exclusion term over
// `picked` families; the empty subset has no term.
func signed(picked int, pairs int64) int64 {
	switch {
	case picked == 0:
		return 0
	case picked%2 == 1:
		return pairs
	default:
		return -pairs
	}
}

// uncov counts the pairs among the members order[lo:hi] that share a
// main key under at least one dominating family: the inclusion–exclusion
// sum of §IV-A over the non-empty subsets of those families.
func (rb *rangeBuilder) uncov(lo, hi int) int64 {
	if rb.nd == 0 || hi-lo < 2 {
		return 0
	}
	rb.base = rb.base[:0]
	for _, m := range rb.order[lo:hi] {
		rb.base = append(rb.base, uint64(m))
	}
	return max(rb.refine(rb.base, 0, 0), 0)
}

// refine returns the signed sum, over every subset S of the dominating
// families f, f+1, … (joined to the `picked` families already chosen
// among those before f), of the pairs that agree on all of S — among
// members (the low words of ms) that already agree on the chosen ones.
// A subset either leaves f out — the same members, one family on — or
// takes it, which splits the members by their family-f key: one sort of
// id<<32 | member, a pair of 32-bit values that no number of families
// can overflow, instead of a composite key per subset. Groups shrink
// with every family taken and a group of one has no pairs, so deep
// subsets cost next to nothing.
func (rb *rangeBuilder) refine(ms []uint64, f, picked int) int64 {
	if len(ms) < 2 {
		return 0
	}
	if f == rb.nd {
		return signed(picked, entity.Pairs(len(ms)))
	}
	total := rb.refine(ms, f+1, picked)
	if f == rb.nd-1 {
		// No family is left to split f's groups: their sizes are all
		// that is asked, and a group of c members has as many pairs as
		// its members found others there before them.
		var pairs int64
		for _, m := range ms {
			c := &rb.count[rb.dom(m, f)]
			pairs += int64(*c)
			*c++
		}
		for _, m := range ms {
			rb.count[rb.dom(m, f)] = 0
		}
		return total + signed(picked+1, pairs)
	}
	g := rb.group[f][:0]
	for _, m := range ms {
		g = append(g, uint64(rb.dom(m, f))<<32|uint64(uint32(m)))
	}
	slices.Sort(g)
	rb.group[f] = g
	for i := 0; i < len(g); {
		j := i + 1
		for j < len(g) && g[j]>>32 == g[i]>>32 {
			j++
		}
		total += rb.refine(g[i:j], f+1, picked+1)
		i = j
	}
	return total
}
