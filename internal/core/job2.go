package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/dedup"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/mapreduce"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/obs"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// job2Side is the side data every Job-2 task sees: the progressive
// schedule plus the pipeline configuration pieces the tasks need.
type job2Side struct {
	schedule *sched.Schedule
	families blocking.Families
	matcher  *match.Matcher
	mech     mechanism.Mechanism
	policy   estimate.Policy
	// noDedup disables the SHOULD-RESOLVE ownership check (ablation).
	noDedup bool
}

// Job2Mapper implements §III-B's map function: for each entity, emit a
// (SQ(X), entity ⊕ List(entity, X)) pair for every scheduled block X
// containing the entity, all of them as one value (Map). Its Setup
// charges the simulated cost of regenerating the progressive schedule
// from the Job-1 statistics, which every map task pays (the paper
// generates the schedule in the setup function of each map task).
type Job2Mapper struct {
	mapreduce.MapperBase
	side *job2Side
	// Per-task scratch, reused across Map calls: nothing derived from
	// one input record outlives its Map call except the emitted value,
	// which is cut from vals.
	view   entity.View // the input record's entity, read in place
	key    []byte      // the deepest-level key being looked up
	chain  dedup.List
	chains []byte
	vals   mapreduce.ValueChunks
	// path[j][l-1] is the scheduled block of family j at level l that
	// holds the entity locate was last called on, down to the level above
	// the first pruned one (a block's descendants are pruned with it):
	// one schedule lookup a (family, level).
	path [][]*blocking.Block
}

// Setup implements mapreduce.Mapper.
func (m *Job2Mapper) Setup(ctx *mapreduce.TaskContext) error {
	nBlocks := m.side.schedule.NumBlocks()
	// Schedule generation ≈ a handful of linear passes over the block
	// statistics plus a few sorts of SL; in-memory arithmetic, priced
	// at record-read granularity (far cheaper than hint sorting, which
	// moves whole entities).
	logB := 1.0
	for n := nBlocks; n > 1; n >>= 1 {
		logB++
	}
	start := ctx.Now()
	genCost := ctx.Cost.ReadRecord * costmodel.Units(nBlocks) * (6 + logB)
	ctx.Charge(genCost)
	ctx.Inc(CounterJob2ScheduleGen, 1)
	if ctx.Tracing() {
		ctx.Span("schedule", "schedule gen (map setup)", start, ctx.Now(),
			obs.A("blocks", nBlocks))
	}
	return nil
}

// locate fills m.path with the block path of the input record's entity,
// which it reads in place: the ID and the blocking attributes are views
// of the record. Per family it derives the deepest-level key — the one
// key derivation an entity pays; every shallower level is a prefix of
// it (Family.Shallower) — and charges the simulated cost of one key
// computation per level. It returns the entity's encoding, which is a
// prefix of the record's value.
func (m *Job2Mapper) locate(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue) ([]byte, error) {
	n, err := m.view.Scan(rec.Value)
	if err != nil {
		return nil, err
	}
	fams := m.side.families
	if m.path == nil {
		m.path = make([][]*blocking.Block, len(fams))
	}
	totalLevels := 0
	for j, f := range fams {
		totalLevels += f.Levels()
		m.key = f.AppendKey(m.key[:0], m.view.Attr(f.Attr), f.Levels())
		m.path[j] = m.path[j][:0]
		for l := range f.Levels() {
			b := m.side.schedule.ByID.Lookup(j, l+1, m.key[:min(len(m.key), f.PrefixLens[l])])
			if b == nil {
				break
			}
			m.path[j] = append(m.path[j], b)
		}
	}
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(totalLevels))
	return rec.Value[:n], nil
}

// Map implements mapreduce.Mapper. Every record of the entity carries
// one value: the entity, then per family j the chain C_j, the Dom of
// each distinct tree on its family-j path, shallowest first, as a
// dedup.Encode list. The reducer derives List(entity, X) from it
// (appendRow).
func (m *Job2Mapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	entBuf, err := m.locate(ctx, rec)
	if err != nil {
		return err
	}
	emitted := 0
	m.chains = m.chains[:0]
	for _, path := range m.path {
		m.chain = m.chain[:0]
		for _, b := range path {
			if dom := m.side.schedule.Trees[b.Tree].Dom; len(m.chain) == 0 || m.chain[len(m.chain)-1] != dom {
				m.chain = append(m.chain, dom)
			}
		}
		m.chains, emitted = dedup.Encode(m.chains, m.chain), emitted+len(path)
	}
	if emitted == 0 { // (an entity whose every block was pruned must not create the counter)
		return nil
	}
	val := append(append(m.vals.Alloc(len(entBuf)+len(m.chains)), entBuf...), m.chains...)
	for _, path := range m.path {
		for _, b := range path {
			emit.Emit(b.SQKey, val)
		}
	}
	ctx.Inc(CounterJob2Emitted, int64(emitted))
	return nil
}

// appendRow appends to doms entity id's List(e, T) of §V for a block of
// the tree T, Dom t, of family own, from chains, the n tree chains that
// follow the entity in its value (Job2Mapper.Map): position k ≠ own is
// C_k's first tree, the entity's main tree of family k; position own is
// t; position n is the tree after t in C_own, the highest split-off
// descendant tree containing the entity. Where there is none, the
// entity's sentinel stands in, which equals no other entity's value, so
// ShouldResolve decides as it does on the lists. A value that does not
// hold exactly n chains, with t in C_own, is an error and adds nothing.
func appendRow(doms dedup.List, chains []byte, n, own int, t dedup.Dom, id entity.ID) (dedup.List, error) {
	sentinel := dedup.SentinelFor(int32(id))
	row, next := len(doms), sentinel
	for k := 0; k < n; k++ {
		cnt, w := binary.Uvarint(chains)
		if w <= 0 || cnt > uint64(len(chains)) {
			return doms[:row], fmt.Errorf("core: job-2 payload of e%d has no tree chain %d", id, k)
		}
		chains = chains[w:]
		v, at := sentinel, -1
		for i := 0; i < int(cnt); i++ {
			d, w := binary.Varint(chains)
			if w <= 0 {
				return doms[:row], fmt.Errorf("core: job-2 payload of e%d has a truncated tree chain %d", id, k)
			}
			chains = chains[w:]
			switch dom := dedup.Dom(d); {
			case i == 0 && k != own:
				v = dom
			case k == own && at < 0 && dom == t:
				v, at = dom, i
			case k == own && at >= 0 && i == at+1:
				next = dom
			}
		}
		if k == own && at < 0 {
			return doms[:row], fmt.Errorf("core: job-2 payload of e%d has no tree %d in its chain of family %d", id, t, k)
		}
		doms = append(doms, v)
	}
	if len(chains) > 0 {
		return doms[:row], fmt.Errorf("core: job-2 payload of e%d has %d bytes past its tree chains", id, len(chains))
	}
	return append(doms, next), nil
}

// Job2Partitioner routes each sequence key to its reduce task.
func Job2Partitioner(key string, numReduce int) int {
	sq, err := sched.ParseSQKey(key)
	if err != nil {
		return 0
	}
	task := sched.TaskOfSQ(sq)
	if task < 0 || task >= numReduce {
		return 0
	}
	return task
}

// dupValue encodes a discovered duplicate pair as a reduce-output value.
func dupValue(p entity.Pair) []byte { return entity.EncodePair(nil, p) }

// treeState is everything a reduce task keeps for one tree between that
// tree's blocks. All of a tree's blocks belong to one reduce task, so
// the state is borrowed at the tree's first block and returned after its
// last; a task holds state only for the trees it is in the middle of,
// and the memory behind it is sized by those, not by how many trees the
// process has resolved before.
//
// It is columnar: an entity of the tree is a slot — its arrival rank —
// and everything known about it is a row of an array indexed by slot,
// all sized from the root's size, which is the tree's entity count. A
// candidate pair reaches Decide as two positions in the block, the
// block's slot list turns them into slots, SHOULD-RESOLVE reads two rows
// of doms and the resolved set is probed with the two slots.
type treeState struct {
	// resolved is the within-tree resolved-pair set, which is what makes
	// incremental bottom-up resolution repeat-free (§III-A). A tree of
	// one block has no later visit to keep repeat-free — and one visit
	// asks about no pair twice — so it has none (no words).
	resolved pairTable
	// slotOf finds the slot of an entity that arrives again with a later
	// block of the tree — one lookup per record. The mapper sends one
	// value per entity, so the ID names the bytes and a known ID is not
	// decoded twice.
	slotOf map[entity.ID]int32
	// dec owns the storage of ents and sortKeys: slabs sized for the
	// whole tree, attributes read from the values in place, a string of
	// lowered keys per block, all invalidated when the tree is done.
	dec  entity.Decoder
	ents []*entity.Entity
	// doms holds the dominance rows (appendRow), stride len(families)+1.
	doms dedup.List
	// sortKeys is the lower-cased sort attribute of the tree's family:
	// lowered once per entity and tree, not once per block visit.
	sortKeys []string
	// blocksLeft counts the tree's scheduled blocks not yet resolved.
	blocksLeft int
	// tree is the tree's index in the schedule.
	tree int
	// class is the pool of treeStates the state goes back to.
	class int
}

// treeStates lends reduce tasks their trees' states: of the ~10⁴ trees
// of a run, only the ones some running task is in the middle of hold a
// state at any time. There is a pool per size class — entity counts of
// one bit length, fewer than 2³¹ — because a task's trees span three
// orders of magnitude and are open by the hundred: handed out at random,
// the few large states would go to small trees, every large tree would
// start from a small state (and allocate, as if nothing were borrowed),
// and the pooled memory would grow towards hundreds of states of the
// largest size. Within a class a state fits its tree to a factor of two.
//
// A state comes back from the task that took it, after the tree's last
// block, emptied (release): the pool keeps no entity, string or ID of a
// finished tree. A task that fails keeps its states; the collector takes
// them.
var treeStates [32]sync.Pool

// borrowTreeState takes a state for the tree at index `tree` of the
// schedule, its columns and slabs grown to the root's size — the tree's
// entity count, which no block of it exceeds — and its resolved set to
// the size the schedule predicts.
func (side *job2Side) borrowTreeState(tree int) *treeState {
	t := side.schedule.Trees[tree]
	size := t.Root.Size
	class := bits.Len(uint(size))
	ts, _ := treeStates[class].Get().(*treeState)
	if ts == nil {
		ts = &treeState{class: class}
	}
	ts.tree, ts.blocksLeft = tree, t.NumBlocks()
	ts.ents = slices.Grow(ts.ents, size)
	ts.doms = slices.Grow(ts.doms, size*(len(side.families)+1))
	ts.sortKeys = slices.Grow(ts.sortKeys, size)
	ts.dec.Grow(size)
	if ts.blocksLeft > 1 {
		ts.resolved.reset(size, side.resolvedPairsEstimate(t.Root))
	}
	return ts
}

// release empties the state and puts it back. Everything that points
// at the finished tree's entities or into a record — the entity
// pointers, their slabs, the sort keys — is cleared, so the pool pins
// nothing; the pointer-free parts are just truncated (the resolved set is
// cleared where it is next sized, to that size).
func (ts *treeState) release() {
	clear(ts.ents)
	clear(ts.sortKeys)
	clear(ts.slotOf)
	ts.dec.Reset(0)
	ts.ents, ts.doms, ts.sortKeys = ts.ents[:0], ts.doms[:0], ts.sortKeys[:0]
	ts.resolved.off()
	treeStates[ts.class].Put(ts)
}

// admit decodes a block's new arrivals — Job-2 values, in slot order —
// into the tree's next slots: their entities and sort keys in one
// Decoder call, which leaves them reading the values in place, then each
// one's dominance row from the chains that follow its entity. It
// overwrites fresh.
func (ts *treeState) admit(side *job2Side, fresh [][]byte) error {
	if len(fresh) == 0 {
		return nil
	}
	first := len(ts.ents)
	t := side.schedule.Trees[ts.tree]
	own := int(t.Root.ID.Family)
	var err error
	if ts.ents, ts.sortKeys, err = ts.dec.DecodeAll(ts.ents, ts.sortKeys, fresh, side.families[own].Attr); err != nil {
		return err
	}
	for k, chains := range fresh {
		if ts.doms, err = appendRow(ts.doms, chains, len(side.families), own, t.Dom, ts.ents[first+k].ID); err != nil {
			return err
		}
	}
	return nil
}

// Job2Reducer resolves blocks in sequence order, one Reduce call per
// scheduled block; one instance per reduce task. It keeps the state of
// each tree it is in the middle of, by tree index.
type Job2Reducer struct {
	side  *job2Side
	trees map[int]*treeState
	*blockScratch
}

// blockScratch is one block's members as the mechanism sees them,
// gathered from the tree's columns, and the values of its new arrivals;
// reused from block to block (mechanisms keep nothing of a block after
// ResolveBlock returns) and, borrowed in Setup and returned in Cleanup,
// from task to task.
type blockScratch struct {
	slots []int32
	ents  []*entity.Entity
	keys  []string
	fresh [][]byte
}

var blockScratches = sync.Pool{New: func() any { return new(blockScratch) }}

// Setup implements mapreduce.Reducer.
func (r *Job2Reducer) Setup(*mapreduce.TaskContext) error {
	r.trees = map[int]*treeState{}
	r.blockScratch = blockScratches.Get().(*blockScratch)
	return nil
}

// Cleanup implements mapreduce.Reducer: the scratch goes back without
// the last blocks' entities, keys and values.
func (r *Job2Reducer) Cleanup(*mapreduce.TaskContext, mapreduce.Emitter) error {
	clear(r.ents[:cap(r.ents)])
	clear(r.keys[:cap(r.keys)])
	clear(r.fresh[:cap(r.fresh)])
	blockScratches.Put(r.blockScratch)
	r.blockScratch = nil
	return nil
}

// scheduled finds the block a reduce key names and its tree's state,
// borrowing the state at the tree's first block.
func (r *Job2Reducer) scheduled(key string) (*blocking.Block, int64, *treeState, error) {
	s := r.side.schedule
	sq, err := sched.ParseSQKey(key)
	if err != nil {
		return nil, 0, nil, err
	}
	b := s.Block(sq)
	if b == nil {
		return nil, 0, nil, fmt.Errorf("core: no scheduled block for sequence %d", sq)
	}
	ts := r.trees[b.Tree]
	if ts == nil {
		ts = r.side.borrowTreeState(b.Tree)
		r.trees[b.Tree] = ts
		if root := s.Trees[b.Tree].Root; cap(r.slots) < root.Size {
			// No block of the tree is larger than its root.
			r.slots = make([]int32, 0, root.Size)
			r.ents = make([]*entity.Entity, 0, root.Size)
			r.keys = make([]string, 0, root.Size)
			r.fresh = make([][]byte, 0, root.Size)
		}
	}
	return b, sq, ts, nil
}

// resolvedPairsEstimate predicts how many pairs the resolved set of the
// tree under root will hold when its last visit, the root's, begins:
// that visit only tests the set, so what it holds is what the non-root
// blocks resolved, each pair once. The sum below counts a pair a parent
// finds already resolved by a child twice, which puts it over the count
// — 1.7–2.2× on persons-exact's large trees, tree by tree — so that no
// table grows on the benchmark's three workloads; pairTable.grow covers
// the rest (a mechanism that ignores the window, say).
func (side *job2Side) resolvedPairsEstimate(root *blocking.Block) int {
	return int(side.resolvedBelow(root)*1.05) + 8
}

// resolvedBelow sums, over the blocks strictly below b, the pairs each
// resolves, from what the schedule knows — the estimator's own
// arithmetic (§IV-B): a block examines WindowPairs(|X|, w) pairs, of
// which its tree owns — resolves rather than leaves to a more
// dominating family's tree — the fraction Cov/Pairs that Job 1 counted,
// and a partial visit stops after about Dup + Dis of them.
func (side *job2Side) resolvedBelow(b *blocking.Block) float64 {
	sum := 0.0
	for _, c := range b.Children {
		pairs := float64(estimate.WindowPairs(c.Size, side.policy.Window(c)))
		if all := entity.Pairs(c.Size); !side.noDedup && c.Cov < all {
			pairs *= float64(c.Cov) / float64(all)
		}
		if p := c.DupEst + c.DisEst; p < pairs {
			pairs = p
		}
		sum += pairs + side.resolvedBelow(c)
	}
	return sum
}

// resolve runs the mechanism over one scheduled block — r.slots names
// its members — and reports the visit: counters, quality observation,
// trace span. After the tree's last block it drops the tree's state.
func (r *Job2Reducer) resolve(ctx *mapreduce.TaskContext, emit mapreduce.Emitter, start costmodel.Units,
	b *blocking.Block, sq int64, ts *treeState) {
	famIdx := int(b.ID.Family)
	index := famIdx + 1 // 1-based dominance Index of the family
	n := len(r.side.families)
	slots, ents, keys := r.slots, r.ents[:0], r.keys[:0]
	for _, s := range slots {
		ents, keys = append(ents, ts.ents[s]), append(keys, ts.sortKeys[s])
	}
	r.ents, r.keys = ents, keys
	var stop mechanism.StopFunc
	if !b.FullResolve {
		stop = mechanism.DistinctThreshold(b.Th)
	}
	// The tree's last visit only tests the resolved set: no visit asks
	// about a pair twice, and no later one asks at all.
	tracked, last := ts.resolved.tracked(), ts.blocksLeft == 1
	env := &mechanism.Env{
		SortAttr: r.side.families[famIdx].Attr,
		SortKeys: keys,
		Match:    r.side.matcher.Match,
		// A pair is entered into the resolved set the moment it is ruled
		// Resolve — every mechanism emits a pair it was told to resolve
		// before it asks about the next one, so nothing can observe the
		// difference from entering it in Emit — and only after the
		// ownership test, so a pair another tree owns never enters.
		Decide: func(_ entity.Pair, i, j int) mechanism.Decision {
			si, sj := slots[i], slots[j]
			x, y := int(si)*(n+1), int(sj)*(n+1)
			if !r.side.noDedup && !dedup.ShouldResolve(ts.doms[x:x+n+1], ts.doms[y:y+n+1], index, n) {
				return mechanism.SkipNotResponsible
			}
			if tracked && (last && ts.resolved.has(si, sj) || !last && ts.resolved.testAndSet(si, sj)) {
				return mechanism.SkipResolved
			}
			return mechanism.Resolve
		},
		Emit: func(p entity.Pair, isDup bool) {
			if isDup {
				emit.Emit("dup", dupValue(p))
			}
		},
		Charge: ctx.Charge,
		Stop:   stop,
		Cost:   ctx.Cost,
	}
	window := r.side.policy.Window(b)
	st := r.side.mech.ResolveBlock(env, ents, window)
	ctx.Inc(CounterJob2BlocksResolved, 1)
	ctx.Inc(CounterJob2Compared, int64(st.Compared))
	ctx.Inc(CounterJob2Dups, int64(st.Dups))
	ctx.Inc(CounterJob2Skipped, int64(st.Skipped))
	if b.FullResolve {
		ctx.Inc(CounterJob2FullResolves, 1)
	}
	if ctx.QualityOn() {
		ctx.ObserveBlock(quality.BlockObs{
			ID:       b.ID.String(),
			SQ:       sq,
			Start:    start,
			End:      ctx.Now(),
			Compared: int64(st.Compared),
			Dups:     int64(st.Dups),
			Skipped:  int64(st.Skipped),
			Full:     b.FullResolve,
		})
	}
	if ctx.Tracing() {
		ctx.Span("resolve", "block "+b.ID.String(), start, ctx.Now(),
			obs.A("sq", sq),
			obs.A("size", len(ents)),
			obs.A("window", window),
			obs.A("th", b.Th),
			obs.A("full", b.FullResolve),
			obs.A("hint_cost", float64(ctx.Cost.HintCost(len(ents)))),
			obs.A("compared", st.Compared),
			obs.A("dups", st.Dups),
			obs.A("skipped", st.Skipped))
	}
	if ts.blocksLeft--; ts.blocksLeft == 0 {
		delete(r.trees, ts.tree)
		ts.release()
	}
}

// Reduce implements mapreduce.Reducer: one call per scheduled block.
// Decoded entities are shared across the tree's blocks — safe because
// entities are read-only downstream (mechanisms never mutate the
// entities or the slice they are given).
func (r *Job2Reducer) Reduce(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	start := ctx.Now()
	b, sq, ts, err := r.scheduled(key)
	if err != nil {
		return err
	}
	// Whoever arrives with the tree's last block — with the only block of
	// a tree of one — is not looked up again: no entry, and no index for
	// a tree that never needs one.
	index := ts.blocksLeft > 1
	if index && ts.slotOf == nil {
		ts.slotOf = make(map[entity.ID]int32, cap(ts.ents))
	}
	// Look every record's entity up once; a first arrival gets the tree's
	// next slot, and the block's first arrivals are then decoded together
	// (the tree's slabs have room for all of them).
	r.slots, r.fresh = r.slots[:0], r.fresh[:0]
	for _, v := range values {
		id, n := binary.Uvarint(v)
		if n <= 0 {
			return fmt.Errorf("core: job-2 payload without an entity ID at %s", key)
		}
		slot, ok := ts.slotOf[entity.ID(id)]
		if !ok {
			slot = int32(len(ts.ents) + len(r.fresh))
			r.fresh = append(r.fresh, v)
			if index {
				ts.slotOf[entity.ID(id)] = slot
			}
		}
		r.slots = append(r.slots, slot)
	}
	if err := ts.admit(r.side, r.fresh); err != nil {
		return err
	}
	r.resolve(ctx, emit, start, b, sq, ts)
	return nil
}
