package mechanism

import "proger/internal/entity"

// RSwoosh is the R-Swoosh algorithm of Benjelloun et al. [1] ("Swoosh:
// a generic approach to entity resolution") adapted to the mechanism
// interface: records are consumed one at a time and compared against
// the set of already-merged profiles; on a match the profiles merge
// (attribute-wise, keeping the longest value as the representative) and
// matching continues with the merged record. Unlike SN/PSNM it is a
// *traditional* algorithm — exhaustive, oblivious to any ordering hint,
// and insensitive to the window parameter — which makes it the natural
// plug-in when the pipeline must guarantee within-block completeness,
// and a reference point for how much the progressive hints actually
// buy.
type RSwoosh struct{}

// Name implements Mechanism.
func (RSwoosh) Name() string { return "R-Swoosh" }

// profile is a merged record: the representative attribute values plus
// the constituent entities, by position in the block.
type profile struct {
	rep     *entity.Entity
	members []int32
}

// mergeInto folds e into p, keeping the longest value per attribute
// (Swoosh's merge domination idea in its simplest useful form).
func (p *profile) mergeInto(e *entity.Entity, pos int32) {
	for i, v := range e.Attrs {
		if i >= len(p.rep.Attrs) {
			p.rep.Attrs = append(p.rep.Attrs, v)
			continue
		}
		if len(v) > len(p.rep.Attrs[i]) {
			p.rep.Attrs[i] = v
		}
	}
	p.members = append(p.members, pos)
}

// ResolveBlock implements Mechanism. The window parameter is ignored —
// R-Swoosh is exhaustive by design.
func (RSwoosh) ResolveBlock(env *Env, ents []*entity.Entity, window int) VisitStats {
	var st VisitStats
	if len(ents) < 2 {
		return st
	}
	// Reading the block (no sorting hint needed).
	env.Charge(env.Cost.ReadRecord * float64(len(ents)))

	var merged []*profile
	for pos, e := range ents {
		matchedIdx := -1
		for i, p := range merged {
			env.Charge(env.Cost.PairCompare)
			isDup := env.Match(p.rep, e)
			st.Compared++
			if isDup {
				st.Dups++
			} else {
				st.Distinct++
			}
			if env.Observer != nil {
				env.Observer(isDup)
			}
			if isDup {
				matchedIdx = i
				break
			}
			if env.stop(&st) {
				return st
			}
		}
		if matchedIdx < 0 {
			merged = append(merged, &profile{
				rep:     e.Clone(),
				members: []int32{int32(pos)},
			})
			continue
		}
		// Emit the co-reference pairs implied by the profile match,
		// honoring the environment's ownership decisions. The pairs
		// beyond the first are bookkeeping, priced as skips.
		p := merged[matchedIdx]
		for i, m := range p.members {
			pair := entity.MakePair(ents[m].ID, e.ID)
			if i > 0 {
				env.Charge(env.Cost.SkipPair)
			}
			switch env.decide(pair, m, int32(pos)) {
			case SkipResolved, SkipNotResponsible:
				st.Skipped++
				continue
			}
			env.Emit(pair, true)
		}
		p.mergeInto(e, int32(pos))
		if env.stop(&st) {
			return st
		}
	}
	return st
}
