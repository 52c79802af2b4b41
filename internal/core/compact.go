package core

import (
	"fmt"

	"proger/internal/costmodel"
	"proger/internal/mapreduce"
)

// This file implements the paper's footnote-5 map-side optimization:
// "Instead of emitting a key-value pair per each block containing eᵢ,
// our actual implementation limits the number of such emitted pairs to
// one per each tree containing eᵢ."
//
// The compact Job 2 works as follows:
//
//   - each map task emits, per (entity, tree), ONE payload record under
//     the sequence key of the tree's *first scheduled block* (so the
//     payload reaches the reduce task before any of the tree's blocks
//     must be resolved);
//   - map task 0 additionally emits one tiny *trigger* record per
//     scheduled block, so every block's key exists in the shuffle and
//     the framework invokes the reduce function for it in schedule
//     order;
//   - the reduce task caches each tree's entities on first contact and
//     recomputes per-block membership with the family's key function —
//     trading a per-block scan of the cached tree for a ~2–3× smaller
//     shuffle, exactly the paper's trade.
//
// Values are tagged: 'E' payload (entity ⊕ dominance list), 'T' trigger.

const (
	compactTagEntity  = 'E'
	compactTagTrigger = 'T'
)

// CompactJob2Mapper is the footnote-5 map function.
type CompactJob2Mapper struct {
	mapreduce.MapperBase
	side *job2Side
	// firstKey[treeIdx] is the tree's payload key.
	firstKey []string
	// lister provides locate and buildList (and carries the per-task
	// scratch); one instance per task, hoisted out of Map.
	lister *Job2Mapper
}

// Setup charges schedule generation, as the expanded mapper does.
func (m *CompactJob2Mapper) Setup(ctx *mapreduce.TaskContext) error {
	if m.firstKey == nil {
		m.firstKey = m.side.schedule.FirstKeyOfTree()
	}
	m.lister = &Job2Mapper{side: m.side}
	return m.lister.Setup(ctx)
}

// Map emits one payload per tree containing the entity.
func (m *CompactJob2Mapper) Map(ctx *mapreduce.TaskContext, rec mapreduce.KeyValue, emit mapreduce.Emitter) error {
	id, entBuf, err := m.lister.locate(ctx, rec)
	if err != nil {
		return err
	}
	for j, path := range m.lister.path {
		lastTree := -1
		for l, b := range path {
			if b == nil || b.Tree == lastTree {
				continue // pruned, or already shipped to this tree
			}
			lastTree = b.Tree
			list := m.lister.buildList(id, j, l+1)
			value := append(m.lister.vals.Alloc(1+len(entBuf)+len(list)), compactTagEntity)
			value = append(append(value, entBuf...), list...)
			emit.Emit(m.firstKey[b.Tree], value)
			ctx.Inc(CounterJob2Emitted, 1)
		}
	}
	return nil
}

// triggerValue is the shared payload of every trigger record; values
// are read-only downstream, so one backing array serves all emissions.
var triggerValue = []byte{compactTagTrigger}

// Cleanup has map task 0 emit the per-block triggers.
func (m *CompactJob2Mapper) Cleanup(ctx *mapreduce.TaskContext, emit mapreduce.Emitter) error {
	if ctx.Index != 0 {
		return nil
	}
	for _, blocks := range m.side.schedule.TaskBlocks {
		for _, b := range blocks {
			emit.Emit(b.SQKey, triggerValue)
			ctx.Inc(CounterJob2Triggers, 1)
		}
	}
	return nil
}

// CompactJob2Reducer resolves blocks from cached tree entities: each
// payload arrives, and is decoded, exactly once per tree.
type CompactJob2Reducer struct{ job2Blocks }

// Reduce implements mapreduce.Reducer: one call per scheduled block key.
func (r *CompactJob2Reducer) Reduce(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
	start := ctx.Now()
	b, sq, ts, err := r.scheduled(key)
	if err != nil {
		return err
	}

	// Absorb payloads (they arrive, all of them, under the tree's first
	// block's key, alongside at most one trigger).
	r.fresh = r.fresh[:0]
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("core: compact reduce: empty value at %s", key)
		}
		switch v[0] {
		case compactTagTrigger:
			continue
		case compactTagEntity:
			r.fresh = append(r.fresh, v[1:])
		default:
			return fmt.Errorf("core: compact reduce: unknown tag %q", v[0])
		}
	}
	if err := ts.admit(r.side, r.fresh); err != nil {
		return err
	}
	if len(ts.ents) == 0 {
		// A block whose tree shipped no entities (possible only if the
		// whole tree was empty — pruning should prevent it).
		return nil
	}
	// Recompute the block's members from the cached tree: the per-block
	// scan the compact emission trades for shuffle volume.
	fam := r.side.families[b.ID.Family]
	r.slots = r.slots[:0]
	for slot, e := range ts.ents {
		if fam.Key(e, int(b.ID.Level)) == b.ID.Key {
			r.slots = append(r.slots, int32(slot))
		}
	}
	ctx.Charge(ctx.Cost.ReadRecord * costmodel.Units(len(ts.ents)))
	r.resolve(ctx, emit, start, b, sq, ts)
	return nil
}
