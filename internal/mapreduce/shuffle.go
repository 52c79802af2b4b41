package mapreduce

// The in-memory shuffle. Between Emit and Reduce a record is moved
// once — the map-side gather from the task's stage into its sorted run
// — and never copied into a merged slice: a partition's reduce input is
// the runs themselves, merged as the reduce task reads them.
//
// Both halves order records through a normalized-key prefix: ord, the
// 8 key bytes that follow a prefix every key in play shares,
// big-endian, zero-padded. Where two ords differ they order the keys;
// where they tie (every record of a block carries one key, and zero
// padding makes "ab" and "ab\x00" tie) the key bytes past the shared
// prefix decide, then the record's position: emission index on the map
// side, map index on the reduce side. That is exactly the stable
// (key, map index, emission order) sequence a stable sort of the
// concatenated map outputs yields.

import (
	"slices"
	"strings"

	"proger/internal/normkey"
)

// runSorter sorts a map task's partitions one after another, reusing
// its scratch arrays from one to the next — and, borrowed with the
// task's mapStage, from one task to the next. What it sorts is a
// normkey.Item per record: 16 pointer-free bytes moved in place of a
// 40-byte KeyValue the garbage collector would have to track through
// every swap, so nothing in the scratch keeps a record alive.
type runSorter struct {
	ents, tmp []normkey.Item
}

// sortInto writes the records stage[sel[0]], stage[sel[1]], … into dst
// (len(dst) == len(sel)) stably sorted by key: emission order within
// equal keys, sel being in emission order. The stage is read through the
// selection and never reordered, so this gather is the one time a map
// output record moves.
func (rs *runSorter) sortInto(dst, stage []KeyValue, sel []int32) {
	n := len(sel)
	if n < 2 {
		for i, s := range sel {
			dst[i] = stage[s]
		}
		return
	}
	first := stage[sel[0]].Key
	skip := len(first)
	for _, s := range sel[1:] {
		skip = normkey.CommonPrefix(first, stage[s].Key, skip)
	}
	if cap(rs.ents) < n {
		rs.ents, rs.tmp = make([]normkey.Item, n), make([]normkey.Item, n)
	}
	ents := rs.ents[:n]
	for i, s := range sel {
		ents[i] = normkey.Item{Ord: normkey.Ord(stage[s].Key, skip), Idx: s}
	}
	ents = normkey.RadixSort(ents, rs.tmp)
	// Records whose ords tie are still in emission order; where their
	// keys are not all one key, the bytes past the ord order them.
	for lo := 0; lo < n; {
		hi := lo + 1
		oneKey := true
		for hi < n && ents[hi].Ord == ents[lo].Ord {
			oneKey = oneKey && stage[ents[hi].Idx].Key == stage[ents[lo].Idx].Key
			hi++
		}
		if !oneKey {
			slices.SortStableFunc(ents[lo:hi], func(a, b normkey.Item) int {
				return strings.Compare(stage[a.Idx].Key[skip:], stage[b.Idx].Key[skip:])
			})
		}
		lo = hi
	}
	for i, e := range ents {
		dst[i] = stage[e.Idx]
	}
}

// memInput is the in-memory reduceInput: the partition's non-empty
// key-sorted runs in map-index order, aliased, never copied — reduce
// inputs are read-only — so a single-contributor partition costs
// nothing to assemble. Every Iter merges them afresh and mutates
// nothing shared, so passes may repeat and overlap.
type memInput struct {
	runs [][]KeyValue
}

func (m memInput) Len() int {
	n := 0
	for _, run := range m.runs {
		n += len(run)
	}
	return n
}

func (m memInput) Iter() (kvIter, error) { return newMergeIter(m.runs), nil }

// mergeSrc is one run's cursor in a mergeIter.
type mergeSrc struct {
	rest []KeyValue // the head record and what follows; empty once drained
	ord  uint64     // normkey.Ord of the head's key
}

// mergeIter streams the stable k-way merge of key-sorted runs through
// an index-based loser tree — the tournament extsort.Merger plays,
// specialized to slice sources and integer comparisons. Leaf s sits at
// node k+s; tree[1..k-1] hold match losers, tree[0] the winner.
type mergeIter struct {
	srcs []mergeSrc
	tree []int
	skip int // prefix length every key of every run shares
}

func newMergeIter(runs [][]KeyValue) *mergeIter {
	k := len(runs)
	if k == 0 {
		return &mergeIter{srcs: make([]mergeSrc, 1), tree: make([]int, 1)} // one drained run
	}
	// Ords of different runs compare only under one skip. A sorted run's
	// keys all lie between its first and its last, so the prefix those
	// share across every run is shared by every key.
	ref := runs[0][0].Key
	skip := len(ref)
	for _, run := range runs {
		skip = normkey.CommonPrefix(ref, run[0].Key, skip)
		skip = normkey.CommonPrefix(ref, run[len(run)-1].Key, skip)
	}
	it := &mergeIter{srcs: make([]mergeSrc, k), tree: make([]int, k), skip: skip}
	for s, run := range runs {
		it.srcs[s] = mergeSrc{rest: run, ord: normkey.Ord(run[0].Key, skip)}
	}
	winners := make([]int, 2*k)
	for s := 0; s < k; s++ {
		winners[k+s] = s
	}
	for n := k - 1; n >= 1; n-- {
		a, b := winners[2*n], winners[2*n+1]
		if it.beats(a, b) {
			winners[n], it.tree[n] = a, b
		} else {
			winners[n], it.tree[n] = b, a
		}
	}
	it.tree[0] = winners[1]
	return it
}

// beats reports whether run a's head precedes run b's: a drained run
// loses to everything, ties go to the earlier map task.
func (it *mergeIter) beats(a, b int) bool {
	sa, sb := &it.srcs[a], &it.srcs[b]
	if len(sa.rest) == 0 || len(sb.rest) == 0 {
		return len(sa.rest) > 0
	}
	if sa.ord != sb.ord {
		return sa.ord < sb.ord
	}
	if c := strings.Compare(sa.rest[0].Key[it.skip:], sb.rest[0].Key[it.skip:]); c != 0 {
		return c < 0
	}
	return a < b
}

func (it *mergeIter) Next() (KeyValue, bool, error) {
	s := it.tree[0]
	src := &it.srcs[s]
	if len(src.rest) == 0 {
		return KeyValue{}, false, nil
	}
	kv := src.rest[0]
	src.rest = src.rest[1:]
	if len(src.rest) > 0 {
		if src.rest[0].Key == kv.Key {
			// Still inside one key group of the winning run: (key, s) has
			// not changed, so neither has the tournament.
			return kv, true, nil
		}
		src.ord = normkey.Ord(src.rest[0].Key, it.skip)
	}
	winner := s
	for n := (len(it.srcs) + s) / 2; n >= 1; n /= 2 {
		if it.beats(it.tree[n], winner) {
			winner, it.tree[n] = it.tree[n], winner
		}
	}
	it.tree[0] = winner
	return kv, true, nil
}

func (it *mergeIter) Close() error { return nil }
