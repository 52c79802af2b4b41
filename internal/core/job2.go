package core

import (
	"encoding/binary"
	"fmt"

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
// containing the entity. Its Setup charges the simulated cost of
// regenerating the progressive schedule from the Job-1 statistics,
// which every map task pays (the paper generates the schedule in the
// setup function of each map task).
type Job2Mapper struct {
	mapreduce.MapperBase
	side *job2Side
	// Per-task codec scratch, reused across Map calls: every caller
	// copies the encoded bytes into the emitted (retained) value buffer
	// before the next encode, so reuse cannot alias live data.
	encScratch  []byte
	listScratch dedup.List
	listEnc     []byte
	// deepScratch backs deepestKeys.
	deepScratch []string
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

// deepestKeys derives e's deepest-level key per family — the one key
// derivation an entity pays; every shallower level is a prefix of it
// (Family.Shallower). It also charges the simulated cost of one key
// computation per level per family. The result is scratch, valid until
// the next call.
func (m *Job2Mapper) deepestKeys(ctx *mapreduce.TaskContext, e *entity.Entity) []string {
	fams := m.side.families
	if cap(m.deepScratch) < len(fams) {
		m.deepScratch = make([]string, len(fams))
	}
	deep := m.deepScratch[:len(fams)]
	totalLevels := 0
	for j, f := range fams {
		totalLevels += f.Levels()
		deep[j] = f.Key(e, f.Levels())
	}
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(totalLevels))
	return deep
}

// Map implements mapreduce.Mapper.
func (m *Job2Mapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	e, _, err := entity.DecodeBinary(rec.Value)
	if err != nil {
		return err
	}
	s := m.side.schedule
	deep := m.deepestKeys(ctx, e)

	// Enumerate the entity's block path per family and emit per block.
	// The emitted value (entity ⊕ List) only changes when the path
	// crosses into a different tree, so one buffer is built per tree and
	// shared by every emission for that tree's blocks — the engine and
	// all reducers treat values as read-only, so aliasing is safe.
	m.encScratch = entity.EncodeBinary(m.encScratch[:0], e)
	entBuf := m.encScratch
	for j, f := range m.side.families {
		var lastTree = -1
		var lastVal []byte
		for l := 1; l <= f.Levels(); l++ {
			id := blocking.BlockID{Family: int8(j), Level: int8(l), Key: f.Shallower(deep[j], l)}
			b, ok := s.ByID[id]
			if !ok {
				continue // pruned block
			}
			ti := s.TreeOf[id]
			if ti != lastTree {
				lastTree = ti
				list := m.buildList(e, deep, j, l, ti)
				lastVal = make([]byte, 0, len(entBuf)+len(list))
				lastVal = append(lastVal, entBuf...)
				lastVal = append(lastVal, list...)
			}
			emit.Emit(b.SQKey, lastVal)
			ctx.Inc(CounterJob2Emitted, 1)
		}
	}
	return nil
}

// buildList constructs List(e, T) per §V for the tree at index ti of
// family j, whose shallowest block on e's path is at level `level`;
// deep is deepestKeys(e). The returned encoding is scratch owned by the
// mapper — callers must copy it into the emitted value before the next
// buildList call.
func (m *Job2Mapper) buildList(e *entity.Entity, deep []string, j, level, ti int) []byte {
	s := m.side.schedule
	fams := m.side.families
	tree := s.Trees[ti]
	if cap(m.listScratch) < len(fams)+1 {
		m.listScratch = make(dedup.List, 0, len(fams)+1)
	}
	list := m.listScratch[:len(fams)]
	for k, f := range fams {
		if k == j {
			// Own family: the tree the emitted block belongs to.
			list[k] = tree.Dom
			continue
		}
		id := blocking.BlockID{Family: int8(k), Level: 1, Key: f.Shallower(deep[k], 1)}
		if t, ok := s.TreeOf[id]; ok {
			list[k] = s.Trees[t].Dom
		} else {
			list[k] = dedup.SentinelFor(int32(e.ID))
		}
	}
	// (n+1)st value: the highest split-off descendant tree containing
	// the entity — the first deeper level on e's path whose block is
	// the root of a different tree.
	f := fams[j]
	treeRootLevel := int(tree.Root.ID.Level)
	for l := max(level, treeRootLevel) + 1; l <= f.Levels(); l++ {
		id := blocking.BlockID{Family: int8(j), Level: int8(l), Key: f.Shallower(deep[j], l)}
		t, ok := s.TreeOf[id]
		if !ok {
			break // pruned below; nothing deeper can be scheduled
		}
		if t != ti && s.Trees[t].Root.ID == id {
			list = append(list, s.Trees[t].Dom)
			break
		}
	}
	m.listEnc = dedup.Encode(m.listEnc[:0], list)
	return m.listEnc
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

// job2Payload is one decoded map-output value: an entity and its
// dominance list for the tree the value was emitted to.
type job2Payload struct {
	ent  *entity.Entity
	list dedup.List
}

func decodeJob2Payload(v []byte) (job2Payload, error) {
	e, n, err := entity.DecodeBinary(v)
	if err != nil {
		return job2Payload{}, err
	}
	l, _, err := dedup.Decode(v[n:])
	if err != nil {
		return job2Payload{}, err
	}
	return job2Payload{ent: e, list: l}, nil
}

// treeState is everything a reduce task keeps for one tree between that
// tree's blocks. All of a tree's blocks belong to one reduce task, so
// the state is created at the tree's first block and dropped after its
// last; a task holds state only for the trees it is in the middle of.
type treeState struct {
	// resolved is the within-tree resolved-pair set, which is what makes
	// incremental bottom-up resolution repeat-free (§III-A).
	resolved pairTable
	// payloads holds the tree's decoded entities and dominance lists by
	// entity ID, each decoded once however many of the tree's blocks it
	// reaches: the mapper sends one (entity ⊕ list) value per entity and
	// tree, so the ID names the bytes. It is also where Decide finds the
	// two lists of a candidate pair.
	payloads map[entity.ID]job2Payload
	// ents lists the tree's entities in arrival order (compact emission
	// only, where block membership is recomputed from them).
	ents []*entity.Entity
	// blocksLeft counts the tree's scheduled blocks not yet resolved.
	blocksLeft int
	// tree is the tree's index in the schedule.
	tree int
}

// job2Blocks is the state and the resolve body that the expanded and
// the compact reducer share: per-tree state by tree index, one
// instance per reduce task.
type job2Blocks struct {
	mapreduce.ReducerBase
	side  *job2Side
	trees map[int]*treeState
}

// Setup implements mapreduce.Reducer.
func (r *job2Blocks) Setup(*mapreduce.TaskContext) error {
	r.trees = map[int]*treeState{}
	return nil
}

// scheduled finds the block a reduce key names and its tree's state,
// creating the state at the tree's first block.
func (r *job2Blocks) scheduled(key string) (*blocking.Block, int64, *treeState, error) {
	s := r.side.schedule
	sq, err := sched.ParseSQKey(key)
	if err != nil {
		return nil, 0, nil, err
	}
	b := s.Block(sq)
	if b == nil {
		return nil, 0, nil, fmt.Errorf("core: no scheduled block for sequence %d", sq)
	}
	treeIdx, ok := s.TreeOf[b.ID]
	if !ok {
		return nil, 0, nil, fmt.Errorf("core: block %s has no tree", b.ID)
	}
	ts := r.trees[treeIdx]
	if ts == nil {
		tree := s.Trees[treeIdx]
		ts = &treeState{
			tree:       treeIdx,
			payloads:   make(map[entity.ID]job2Payload, tree.Root.Size),
			resolved:   newPairTable(r.side.resolvedPairsEstimate(tree.Root)),
			blocksLeft: len(tree.Blocks()),
		}
		r.trees[treeIdx] = ts
	}
	return b, sq, ts, nil
}

// resolvedPairsEstimate predicts how many pairs the resolved set of the
// tree under root will hold once the whole tree is resolved, from what
// the schedule knows: the root is resolved last and fully, examining
// WindowPairs(|root|, w) pairs, of which the tree owns — resolves
// rather than leaves to a more dominating family's tree — the fraction
// Cov/Pairs that Job 1 counted; whatever the descendants resolved
// before lies almost entirely inside that window. This is the
// estimator's own CostF arithmetic (§IV-B), and on the benchmark's
// three workloads it is within a few percent of the count, tree by
// tree; the margin covers that, pairTable.grow covers the rest (a
// mechanism that ignores the window, say).
func (side *job2Side) resolvedPairsEstimate(root *blocking.Block) int {
	pairs := float64(estimate.WindowPairs(root.Size, side.policy.Window(root)))
	if all := entity.Pairs(root.Size); !side.noDedup && root.Cov < all {
		pairs *= float64(root.Cov) / float64(all)
	}
	return int(pairs*1.05) + 8
}

// resolve runs the mechanism over one scheduled block's entities and
// reports the visit: counters, quality observation, trace span. After
// the tree's last block it drops the tree's state.
func (r *job2Blocks) resolve(ctx *mapreduce.TaskContext, emit mapreduce.Emitter, start costmodel.Units,
	b *blocking.Block, sq int64, ts *treeState, ents []*entity.Entity) {
	famIdx := int(b.ID.Family)
	index := famIdx + 1 // 1-based dominance Index of the family
	n := len(r.side.families)
	var stop mechanism.StopFunc
	if !b.FullResolve {
		stop = mechanism.DistinctThreshold(b.Th)
	}
	env := &mechanism.Env{
		SortAttr: r.side.families[famIdx].Attr,
		Match:    r.side.matcher.Match,
		// A pair is entered into the resolved set the moment it is ruled
		// Resolve — every mechanism emits a pair it was told to resolve
		// before it asks about the next one, so nothing can observe the
		// difference from entering it in Emit — and only after the
		// ownership test, so a pair another tree owns never enters.
		Decide: func(p entity.Pair) mechanism.Decision {
			if !r.side.noDedup && !dedup.ShouldResolve(ts.payloads[p.Lo].list, ts.payloads[p.Hi].list, index, n) {
				return mechanism.SkipNotResponsible
			}
			if ts.resolved.testAndSet(p) {
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
	}
}

// Job2Reducer resolves blocks in sequence order, one Reduce call per
// scheduled block; one instance per reduce task.
type Job2Reducer struct{ job2Blocks }

// Reduce implements mapreduce.Reducer: one call per scheduled block.
// Decoded entities are shared across the tree's blocks — safe because
// entities are read-only downstream (mechanisms copy the slice they
// sort and never mutate elements).
func (r *Job2Reducer) Reduce(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	start := ctx.Now()
	b, sq, ts, err := r.scheduled(key)
	if err != nil {
		return err
	}
	ents := make([]*entity.Entity, 0, len(values))
	for _, v := range values {
		id, n := binary.Uvarint(v)
		if n <= 0 {
			return fmt.Errorf("core: job-2 payload without an entity ID at %s", key)
		}
		p, ok := ts.payloads[entity.ID(id)]
		if !ok {
			if p, err = decodeJob2Payload(v); err != nil {
				return err
			}
			ts.payloads[p.ent.ID] = p
		}
		ents = append(ents, p.ent)
	}
	r.resolve(ctx, emit, start, b, sq, ts, ents)
	return nil
}
