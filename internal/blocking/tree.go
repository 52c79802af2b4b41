package blocking

import (
	"fmt"
	"sort"
	"sync"

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

// NumBlocks returns len(t.Blocks()) without building the slice.
func (t *Tree) NumBlocks() int { return t.Root.count() }

func (b *Block) count() int {
	n := 1
	for _, c := range b.Children {
		n += c.count()
	}
	return n
}

// String identifies the tree by its root.
func (t *Tree) String() string { return fmt.Sprintf("T(%s)", t.Root.ID) }

// treeBuilders lends BuildTree and Job 1's reduce tasks their scratch:
// estimate.Train builds a tree per main block of the training set, most
// of them a handful of members, and a builder grown from nothing each
// time would cost more than the tree; a reduce task's builder grows to
// its largest main block, which the next task need not repeat.
var treeBuilders = sync.Pool{New: func() any { return new(rangeBuilder) }}

// BuildTree constructs the blocking tree of one main block from its
// member entities by applying the family's sub-blocking functions.
// famIdx is the family's 0-based position in Families. Entities are
// not retained; only structure and sizes.
func BuildTree(fam *Family, famIdx int, rootKey string, ents []*entity.Entity) *Tree {
	rb := treeBuilders.Get().(*rangeBuilder)
	defer rb.release()
	rb.reset(fam, famIdx, 0)
	for _, e := range ents {
		rb.keys = append(rb.keys, fam.Key(e, fam.Levels())...)
		rb.member(nil)
	}
	path := make([]*Block, 0, fam.Levels()) // path[l-1] is the level-l block being filled in
	rb.build(rootKey, func(s *BlockStat) {
		b := &Block{ID: s.ID, Size: s.Size}
		l := int(s.ID.Level)
		if path = append(path[:l-1], b); l > 1 {
			b.Parent = path[l-2]
			b.Parent.Children = append(b.Parent.Children, b)
		}
	})
	return &Tree{Root: path[0]}
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
// inclusion-exclusion sum of §IV-A. ents must be the member set the
// tree was built from; sub-block membership is recomputed via fam.Key.
func ComputeUncov(fam *Family, tree *Tree, ents []*entity.Entity, mainKeys [][]string) {
	famIdx := int(tree.Root.ID.Family)
	var rb rangeBuilder
	rb.reset(fam, famIdx, famIdx)
	doms := make([][]byte, famIdx)
	for i, e := range ents {
		for f := range doms {
			doms[f] = []byte(mainKeys[i][f])
		}
		rb.keys = append(rb.keys, fam.Key(e, fam.Levels())...)
		rb.member(doms)
	}
	blocks := tree.Blocks()
	rb.build(tree.Root.ID.Key, func(s *BlockStat) {
		if len(blocks) == 0 || blocks[0].ID != s.ID {
			panic(fmt.Sprintf("blocking: ComputeUncov: %s was not built from these entities (no block %s)", tree, s.ID))
		}
		blocks[0].Uncov = s.Uncov
		blocks = blocks[1:]
	})
}
