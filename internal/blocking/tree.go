package blocking

import (
	"fmt"
	"sort"

	"proger/internal/entity"
)

// Block is one node of a blocking tree: the block identity, the Job-1
// statistics, and the estimation/scheduling fields filled in later by
// internal/estimate and internal/sched. Keeping them on the node keeps
// the whole schedule-generation pipeline allocation-light and mirrors
// the paper's per-block values (Cov, Dup, Cost, Util, Th, Frac, SQ).
type Block struct {
	ID   BlockID
	Size int
	// Uncov is the number of pairs in this block whose responsible tree
	// belongs to a more dominating family (Section IV-A); computed by
	// Job 1 via inclusion-exclusion.
	Uncov int64

	Parent   *Block
	Children []*Block

	// ---- filled by internal/estimate ----

	// Cov = Pairs(Size) − Uncov: pairs this block's tree is responsible for.
	Cov int64
	// DSelf is d(X): the estimated number of covered duplicate pairs in
	// this block (§IV-B), before the Frac/child adjustments of Eq. 2.
	DSelf float64
	// DupEst is Dup(X): expected duplicate pairs found when resolving
	// this block (Eq. 2).
	DupEst float64
	// CostEst is Cost(X): Eq. 3 for non-root blocks, Eq. 5 for roots.
	CostEst float64
	// Util = DupEst / CostEst.
	Util float64
	// Frac is the fraction of d(X) expected to be found by the partial
	// resolve (§IV-B); 1 for blocks resolved fully.
	Frac float64
	// Th is the termination threshold: the partial resolve stops after
	// Th distinct pairs (§III-A); ignored for root blocks.
	Th int64
	// DisEst is the estimated number of distinct pairs resolved when
	// this block is resolved partially (min(Th, Remain); §IV-B).
	DisEst float64

	// ---- filled by internal/sched ----

	// FullResolve marks blocks resolved to completion: tree roots and
	// the roots of split-off subtrees.
	FullResolve bool
	// SQ is the sequence value routing this block to its reduce task
	// and position in the task's block schedule (§III-B).
	SQ int64
	// SQKey is sched.SQKey(SQ): the shuffle key of every Job-2 record
	// emitted for this block, rendered once when SQ is assigned.
	SQKey string
	// Tree is the position in Schedule.Trees of the tree the block
	// belongs to after splitting.
	Tree int
}

// IsLeaf reports whether the block has no children.
func (b *Block) IsLeaf() bool { return len(b.Children) == 0 }

// IsRoot reports whether the block is a tree root (level 1, or the
// detached root of a split subtree).
func (b *Block) IsRoot() bool { return b.Parent == nil }

// Walk visits b and all descendants preorder (parent before children).
func (b *Block) Walk(fn func(*Block)) {
	fn(b)
	for _, c := range b.Children {
		c.Walk(fn)
	}
}

// Descendants returns all blocks strictly below b, preorder.
func (b *Block) Descendants() []*Block {
	var out []*Block
	for _, c := range b.Children {
		c.Walk(func(x *Block) { out = append(out, x) })
	}
	return out
}

// Tree is a rooted blocking tree: the root is a main block (or, after
// splitting, a detached sub-block that is now resolved fully).
type Tree struct {
	Root *Block
	// Dom is the tree's unique dominance value, assigned during
	// schedule generation and used by the redundancy-free resolution
	// check (Section V).
	Dom int32
}

// Blocks returns every block of the tree, preorder (root first).
func (t *Tree) Blocks() []*Block {
	var out []*Block
	t.Root.Walk(func(b *Block) { out = append(out, b) })
	return out
}

// String identifies the tree by its root.
func (t *Tree) String() string { return fmt.Sprintf("T(%s)", t.Root.ID) }

// BuildTree constructs the blocking tree of one main block from its
// member entities by recursively applying the family's sub-blocking
// functions. famIdx is the family's 0-based position in Families.
// Entities are not retained; only structure and sizes.
func BuildTree(fam *Family, famIdx int, rootKey string, ents []*entity.Entity) *Tree {
	root := buildBlock(fam, famIdx, 1, rootKey, ents)
	return &Tree{Root: root}
}

func buildBlock(fam *Family, famIdx int, level int, key string, ents []*entity.Entity) *Block {
	b := &Block{
		ID:   BlockID{Family: int8(famIdx), Level: int8(level), Key: key},
		Size: len(ents),
	}
	if level >= fam.Levels() {
		return b
	}
	groups := map[string][]*entity.Entity{}
	for _, e := range ents {
		k := fam.Key(e, level+1)
		groups[k] = append(groups[k], e)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		child := buildBlock(fam, famIdx, level+1, k, groups[k])
		child.Parent = b
		b.Children = append(b.Children, child)
	}
	return b
}

// GroupByMainKey partitions the dataset's entities by their level-1 key
// under one family, returning keys in sorted order. This is the
// in-memory equivalent of what Job 1's shuffle does, used by tests and
// the toy examples.
func GroupByMainKey(ds *entity.Dataset, fam *Family) (keys []string, groups map[string][]*entity.Entity) {
	groups = map[string][]*entity.Entity{}
	for _, e := range ds.Entities {
		k := fam.Key(e, 1)
		groups[k] = append(groups[k], e)
	}
	keys = make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups
}

// ComputeUncov fills Uncov for every block of a tree of family famIdx,
// given each member entity's annotated main keys (in dominance order).
// A pair of the block is *uncovered* when its two entities share a main
// block under some more-dominating family; the count is the
// inclusion-exclusion sum of §IV-A. ents must be the root block's
// member set; sub-block membership is recomputed via fam.Key.
func ComputeUncov(fam *Family, tree *Tree, ents []*entity.Entity, mainKeys [][]string) {
	famIdx := int(tree.Root.ID.Family)
	if famIdx == 0 {
		// Most dominating family: Uncov ≡ 0 (nothing dominates it).
		tree.Root.Walk(func(b *Block) { b.Uncov = 0 })
		return
	}
	// Index members of every (level, key) block in one pass.
	members := map[BlockID][]int{}
	for i, e := range ents {
		for l := 1; l <= fam.Levels(); l++ {
			id := BlockID{Family: int8(famIdx), Level: int8(l), Key: fam.Key(e, l)}
			members[id] = append(members[id], i)
		}
	}
	tree.Root.Walk(func(b *Block) {
		b.Uncov = uncovPairs(members[b.ID], mainKeys, famIdx)
	})
}

// uncovPairs counts pairs among members sharing at least one main key
// under families 0..famIdx-1, by inclusion-exclusion over non-empty
// subsets of those families. mainKeys[i] is entity i's annotated main
// keys in dominance order.
func uncovPairs(members []int, mainKeys [][]string, famIdx int) int64 {
	if len(members) < 2 || famIdx == 0 {
		return 0
	}
	var total int64
	nSubsets := 1 << famIdx
	for mask := 1; mask < nSubsets; mask++ {
		groups := map[string]int{}
		for _, i := range members {
			key := ""
			for f := 0; f < famIdx; f++ {
				if mask&(1<<f) != 0 {
					key += mainKeys[i][f] + "\x00"
				}
			}
			groups[key]++
		}
		var sum int64
		for _, c := range groups {
			sum += entity.Pairs(c)
		}
		if popcount(mask)%2 == 1 {
			total += sum
		} else {
			total -= sum
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
