package sched

import (
	"container/heap"
	"slices"
	"sort"

	"proger/internal/blocking"
	"proger/internal/costmodel"
)

// generator carries the mutable state of one schedule generation.
type generator struct {
	cfg   Config
	trees []*blocking.Tree

	// Per identify/split round:
	sl       []*blocking.Block       // every block, by utility; reused from round to round
	bucketOf map[*blocking.Block]int // block → SL bucket index
	vc       map[*blocking.Tree][]costmodel.Units

	// Partitioning results:
	taskOf map[*blocking.Tree]int

	// Final schedules:
	taskBlocks [][]*blocking.Block

	// Trees that cannot be (further) split; excluded from overflow
	// detection to guarantee termination.
	unsplittable map[*blocking.Tree]bool

	// Trace bookkeeping (recorded unconditionally — a handful of ints
	// per run — and published by emitTrace only when tracing is on):
	splitRounds int          // identify/split iterations executed
	splitEvents []splitEvent // one per tree that shed subtrees
	taskLoad    []costmodel.Units
	taskSlack   []float64 // leftover weighted slack (slack partition only)
}

// splitEvent records one SPLIT-TREE decision for the trace.
type splitEvent struct {
	round    int
	root     string // root block ID of the split tree
	detached int    // subtrees detached into new trees
}

func (g *generator) buckets() int { return len(g.cfg.CostVector) }

// bucketWidth returns c_h − c_{h−1}.
func (g *generator) bucketWidth(h int) costmodel.Units {
	if h == 0 {
		return g.cfg.CostVector[0]
	}
	return g.cfg.CostVector[h] - g.cfg.CostVector[h-1]
}

// blockLess orders blocks by non-increasing utility with deterministic
// tie-breaking (by ID).
func blockLess(a, b *blocking.Block) bool {
	if a.Util != b.Util {
		return a.Util > b.Util
	}
	return idLess(a.ID, b.ID)
}

// blockCmp is blockLess as a three-way comparison. Over blocks with
// distinct IDs — and every block of a forest has its own — blockLess
// is a strict total order, so this returns 0 only for a block and
// itself.
func blockCmp(a, b *blocking.Block) int {
	switch {
	case blockLess(a, b):
		return -1
	case blockLess(b, a):
		return 1
	}
	return 0
}

func idLess(a, b blocking.BlockID) bool {
	if a.Family != b.Family {
		return a.Family < b.Family
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	return a.Key < b.Key
}

// buildSL sorts all blocks by utility (the list SL of §IV-C1), assigns
// each block its cost-vector bucket, and computes each tree's cost
// vector VC (IDENTIFY-TREES preamble).
func (g *generator) buildSL() {
	sl := g.sl[:0]
	blockTree := map[*blocking.Block]*blocking.Tree{}
	for _, t := range g.trees {
		for _, b := range t.Blocks() {
			sl = append(sl, b)
			blockTree[b] = t
		}
	}
	// A total order has one sorted permutation, so any correct sort
	// yields the list sort.Slice did — without its reflection swapper.
	slices.SortFunc(sl, blockCmp)
	g.sl = sl

	g.bucketOf = make(map[*blocking.Block]int, len(sl))
	g.vc = make(map[*blocking.Tree][]costmodel.Units, len(g.trees))
	for _, t := range g.trees {
		g.vc[t] = make([]costmodel.Units, g.buckets())
	}
	r := costmodel.Units(g.cfg.R)
	cum := costmodel.Units(0)
	bucket := 0
	for _, b := range sl {
		cum += b.CostEst
		for bucket < g.buckets()-1 && cum > g.cfg.CostVector[bucket]*r {
			bucket++
		}
		g.bucketOf[b] = bucket
		g.vc[blockTree[b]][bucket] += b.CostEst
	}
}

// identifyTrees returns the overflowed trees: those with some bucket h
// where VC[h] exceeds the bucket width c_h − c_{h−1} (IDENTIFY-TREES).
// Trees already marked unsplittable are skipped.
func (g *generator) identifyTrees() []*blocking.Tree {
	var out []*blocking.Tree
	for _, t := range g.trees {
		if g.unsplittable[t] {
			continue
		}
		for h, v := range g.vc[t] {
			if v > g.bucketWidth(h) {
				out = append(out, t)
				break
			}
		}
	}
	// Deterministic order: most overloaded first (largest max excess),
	// ties by root ID.
	excess := func(t *blocking.Tree) costmodel.Units {
		var m costmodel.Units
		for h, v := range g.vc[t] {
			if e := v - g.bucketWidth(h); e > m {
				m = e
			}
		}
		return m
	}
	sort.Slice(out, func(i, j int) bool {
		ei, ej := excess(out[i]), excess(out[j])
		if ei != ej {
			return ei > ej
		}
		return idLess(out[i].Root.ID, out[j].Root.ID)
	})
	return out
}

// subtreeVC computes the per-bucket cost vector of the subtree rooted
// at b, using the current SL bucket assignment.
func (g *generator) subtreeVC(b *blocking.Block) []costmodel.Units {
	v := make([]costmodel.Units, g.buckets())
	b.Walk(func(x *blocking.Block) {
		v[g.bucketOf[x]] += x.CostEst
	})
	return v
}

// splitLoop is the while-loop of GENERATE-SCHEDULE (Fig. 6): identify
// overflowed trees, split a batch of them, repeat until none remain or
// no further progress is possible.
func (g *generator) splitLoop() {
	g.unsplittable = map[*blocking.Tree]bool{}
	for round := 0; round < g.cfg.MaxSplitRounds; round++ {
		g.buildSL()
		overflowed := g.identifyTrees()
		if len(overflowed) == 0 {
			return
		}
		g.splitRounds = round + 1
		n := g.cfg.Batch
		if n > len(overflowed) {
			n = len(overflowed)
		}
		progress := false
		for i := 0; i < n; i++ {
			newTrees := g.splitTree(overflowed[i])
			if len(newTrees) == 0 {
				// Root has no children or nothing was detached; this
				// tree cannot be improved further.
				g.unsplittable[overflowed[i]] = true
				continue
			}
			progress = true
			g.splitEvents = append(g.splitEvents, splitEvent{
				round:    round,
				root:     overflowed[i].Root.ID.String(),
				detached: len(newTrees),
			})
			g.trees = append(g.trees, newTrees...)
		}
		if !progress {
			return
		}
	}
}

// splitTree is SPLIT-TREE (Fig. 6): iterate the root's children in
// non-increasing utility order; detach every child whose retention
// would overflow a bucket (SHOULD-SPLIT), keeping the rest (set E).
func (g *generator) splitTree(t *blocking.Tree) []*blocking.Tree {
	root := t.Root
	if len(root.Children) == 0 {
		return nil
	}
	children := make([]*blocking.Block, len(root.Children))
	copy(children, root.Children)
	sort.Slice(children, func(i, j int) bool { return blockLess(children[i], children[j]) })

	var kept []*blocking.Block // the set E
	vstar := make([]costmodel.Units, g.buckets())
	var newTrees []*blocking.Tree
	for _, child := range children {
		if g.shouldSplit(child, root, vstar, kept) {
			nt := g.cfg.Estimator.DetachChild(root, child)
			newTrees = append(newTrees, nt)
		} else {
			kept = append(kept, child)
		}
	}
	return newTrees
}

// shouldSplit is SHOULD-SPLIT (Fig. 6): hypothesize that the root keeps
// exactly kept ∪ {child}; if any bucket of the combined cost vectors
// (root's hypothetical cost at its SL position plus the kept subtrees)
// exceeds its width, child must be split off.
func (g *generator) shouldSplit(child, root *blocking.Block, vstar []costmodel.Units, kept []*blocking.Block) bool {
	// Step 1: hypothetical Cost(root) with Chd = kept ∪ {child}:
	// Eq. 5 with only those descendants.
	hypo := g.hypotheticalRootCost(root, append(append([]*blocking.Block{}, kept...), child))
	// Step 2: place it at the root's current SL bucket (the paper
	// deliberately does not re-sort SL here).
	s := g.bucketOf[root]
	for i := range vstar {
		vstar[i] = 0
	}
	vstar[s] = hypo
	// Step 3: test every bucket.
	for h := 0; h < g.buckets(); h++ {
		sum := vstar[h]
		for _, k := range kept {
			sum += g.subtreeVC(k)[h]
		}
		sum += g.subtreeVC(child)[h]
		if sum > g.bucketWidth(h) {
			return true
		}
	}
	return false
}

// hypotheticalRootCost evaluates Eq. 5 for the root as if its children
// were exactly chd (all other subtrees split off).
func (g *generator) hypotheticalRootCost(root *blocking.Block, chd []*blocking.Block) costmodel.Units {
	est := g.cfg.Estimator
	costA := est.Cost.HintCost(root.Size)
	cost := costA + est.CostFull(root)
	for _, c := range chd {
		c.Walk(func(x *blocking.Block) {
			cost -= est.CostPartial(x)
		})
	}
	if cost < costA {
		cost = costA
	}
	return cost
}

// weightedCost is Σ_h W(c_h)·VC(T)[h] (PARTITION-TREES).
func (g *generator) weightedCost(t *blocking.Tree) float64 {
	w := 0.0
	for h, v := range g.vc[t] {
		w += g.cfg.Weights[h] * float64(v)
	}
	return w
}

// partitionBySlack implements PARTITION-TREES: trees in non-increasing
// weighted-cost order, each assigned to the task with the largest slack
// SK(R).
func (g *generator) partitionBySlack() {
	g.buildSL() // refresh buckets and VC after any splits
	order := make([]*blocking.Tree, len(g.trees))
	copy(order, g.trees)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := g.weightedCost(order[i]), g.weightedCost(order[j])
		if wi != wj {
			return wi > wj
		}
		return idLess(order[i].Root.ID, order[j].Root.ID)
	})

	assigned := make([][]costmodel.Units, g.cfg.R) // per-task, per-bucket assigned cost
	totalLoad := make([]costmodel.Units, g.cfg.R)
	for r := range assigned {
		assigned[r] = make([]costmodel.Units, g.buckets())
	}
	g.taskOf = make(map[*blocking.Tree]int, len(g.trees))
	for _, t := range order {
		vct := g.vc[t]
		treeCost := costmodel.Units(0)
		for _, v := range vct {
			treeCost += v
		}
		best, bestSlack := 0, -1e300
		for r := 0; r < g.cfg.R; r++ {
			slack := 0.0
			for h := 0; h < g.buckets(); h++ {
				if vct[h] <= 0 {
					continue // δ_h = 0
				}
				slack += g.cfg.Weights[h] * float64(g.bucketWidth(h)-assigned[r][h])
			}
			// SK ignores buckets this tree does not touch, so break
			// slack ties by total load — otherwise every bucket's first
			// tree lands on task 0.
			if slack > bestSlack+1e-9 || (slack > bestSlack-1e-9 && totalLoad[r] < totalLoad[best]) {
				best, bestSlack = r, slack
			}
		}
		g.taskOf[t] = best
		totalLoad[best] += treeCost
		for h := 0; h < g.buckets(); h++ {
			assigned[best][h] += vct[h]
		}
	}
	g.taskLoad = totalLoad
	g.taskSlack = make([]float64, g.cfg.R)
	for r := 0; r < g.cfg.R; r++ {
		slack := 0.0
		for h := 0; h < g.buckets(); h++ {
			slack += g.cfg.Weights[h] * float64(g.bucketWidth(h)-assigned[r][h])
		}
		g.taskSlack[r] = slack
	}
}

// partitionLPT implements the Longest Processing Time baseline: trees
// in non-increasing total-cost order, each to the least-loaded task.
func (g *generator) partitionLPT() {
	g.buildSL()
	treeCost := func(t *blocking.Tree) costmodel.Units {
		var c costmodel.Units
		for _, b := range t.Blocks() {
			c += b.CostEst
		}
		return c
	}
	order := make([]*blocking.Tree, len(g.trees))
	copy(order, g.trees)
	sort.Slice(order, func(i, j int) bool {
		ci, cj := treeCost(order[i]), treeCost(order[j])
		if ci != cj {
			return ci > cj
		}
		return idLess(order[i].Root.ID, order[j].Root.ID)
	})
	load := make([]costmodel.Units, g.cfg.R)
	g.taskOf = make(map[*blocking.Tree]int, len(g.trees))
	for _, t := range order {
		best := 0
		for r := 1; r < g.cfg.R; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		g.taskOf[t] = best
		load[best] += treeCost(t)
	}
	g.taskLoad = load
}

// orderBlocks builds each task's block schedule: non-increasing utility
// subject to the bottom-up constraint — a block becomes eligible only
// once all its children are scheduled (SORT-BLOCKS + §III-A).
func (g *generator) orderBlocks() {
	g.taskBlocks = make([][]*blocking.Block, g.cfg.R)
	perTask := make([][]*blocking.Block, g.cfg.R)
	for _, t := range g.trees {
		task := g.taskOf[t]
		perTask[task] = append(perTask[task], t.Blocks()...)
	}
	for task, blocks := range perTask {
		g.taskBlocks[task] = orderBottomUpByUtility(blocks)
	}
}

// orderBottomUpByUtility repeatedly emits the highest-utility block
// whose children have all been emitted (a priority-driven topological
// sort). This equals a plain utility sort whenever that sort already
// satisfies the bottom-up constraint, and otherwise applies the
// minimal reordering.
func orderBottomUpByUtility(blocks []*blocking.Block) []*blocking.Block {
	inSet := make(map[*blocking.Block]bool, len(blocks))
	for _, b := range blocks {
		inSet[b] = true
	}
	pendingChildren := make(map[*blocking.Block]int, len(blocks))
	for _, b := range blocks {
		n := 0
		for _, c := range b.Children {
			if inSet[c] {
				n++
			}
		}
		pendingChildren[b] = n
	}
	h := &blockHeap{}
	heap.Init(h)
	for _, b := range blocks {
		if pendingChildren[b] == 0 {
			heap.Push(h, b)
		}
	}
	out := make([]*blocking.Block, 0, len(blocks))
	for h.Len() > 0 {
		b := heap.Pop(h).(*blocking.Block)
		out = append(out, b)
		if p := b.Parent; p != nil && inSet[p] {
			pendingChildren[p]--
			if pendingChildren[p] == 0 {
				heap.Push(h, p)
			}
		}
	}
	return out
}

// blockHeap is a max-heap on block utility (ties by ID).
type blockHeap []*blocking.Block

func (h blockHeap) Len() int           { return len(h) }
func (h blockHeap) Less(i, j int) bool { return blockLess(h[i], h[j]) }
func (h blockHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *blockHeap) Push(x any)        { *h = append(*h, x.(*blocking.Block)) }
func (h *blockHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// assignDomAndSQ finalizes the schedule: trees get dominance values in
// deterministic (root-ID) order, blocks get sequence values in schedule
// order within their task's range, each rendered to its shuffle key
// here, once, for every record Job 2 will emit under it.
func (g *generator) assignDomAndSQ() {
	sort.Slice(g.trees, func(i, j int) bool { return idLess(g.trees[i].Root.ID, g.trees[j].Root.ID) })
	for i, t := range g.trees {
		t.Dom = int32(i)
	}
	for task, blocks := range g.taskBlocks {
		for pos, b := range blocks {
			b.SQ = SQFor(task, pos)
			b.SQKey = SQKey(b.SQ)
		}
	}
}

func (g *generator) schedule() *Schedule {
	s := &Schedule{
		Trees:      g.trees,
		TaskOfTree: make([]int, len(g.trees)),
		TaskBlocks: g.taskBlocks,
		R:          g.cfg.R,
	}
	for i, t := range g.trees {
		s.TaskOfTree[i] = g.taskOf[t]
		for _, b := range t.Blocks() {
			s.ByID.Add(b)
			b.Tree = i
		}
	}
	return s
}
