package mapreduce

// The shuffle. Between Emit and Reduce a record is moved once in
// memory — the map-side gather from the task's stage into its sorted
// run — and never copied into a merged slice: a partition's reduce
// input is the runs themselves, in memory or in run files, merged as
// the reduce task reads them.
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
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"

	"proger/internal/extsort"
	"proger/internal/normkey"
	"proger/internal/obs"
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

// sortedRun is one map task's key-sorted run for a partition, the unit
// every reduce input is a list of, in map-index order: its non-empty
// records in memory, or the run stream of a RunPart — a segment with
// known key bounds — of the file at path, each of whose records carries
// m as its seq. The file is a spill file or a fleet map task's file;
// either holds one segment per run it was given.
type sortedRun struct {
	m    int
	kvs  []KeyValue
	path string
	RunPart
}

// mergeSrc is one run's cursor in a mergeIter.
type mergeSrc struct {
	rest []KeyValue  // the head record and what follows; empty once drained
	ord  uint64      // normkey.Ord of the head's key
	file *fileCursor // nil for a run in memory
}

// fileCursor reads a run file one record at a time into head, which its
// source's rest then holds: the source refills when its slice drains.
type fileCursor struct {
	f    *os.File
	rd   *extsort.RunReader
	m    uint64
	head [1]KeyValue
}

// next points *rest at the file's next record, or leaves it empty at
// the end of the file. RunReader.Next returns owned bytes, so the
// record outlives the refill.
func (fc *fileCursor) next(rest *[]KeyValue) error {
	seq, key, val, err := fc.rd.Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return fmt.Errorf("map task %d's run: %w", fc.m, err)
	}
	if seq != fc.m {
		return fmt.Errorf("the run file of map task %d holds a record of map task %d", fc.m, seq)
	}
	fc.head[0] = KeyValue{Key: key, Value: val}
	*rest = fc.head[:]
	return nil
}

// runReaders lends file cursors their readers, and so their buffers.
var runReaders = sync.Pool{New: func() any { return extsort.NewRunReader(nil) }}

// mergeIter streams the stable k-way merge of key-sorted runs through
// an index-based loser tree with integer comparisons. Leaf s sits at
// node k+s; tree[1..k-1] hold match losers, tree[0] the winner. It is
// the one merge of every reduce input, and it must yield exactly want
// records: a pass that ends short or long fails, naming the job, the
// partition and both counts.
type mergeIter struct {
	srcs    []mergeSrc
	tree    []int
	skip    int // prefix length every key of every run shares
	job     string
	r       int
	n, want int
	err     error
	release func() // run once by Close
	closed  bool
}

// mergeRuns opens the merge of runs, which are in map-index order. c,
// when non-nil, counts the bytes read off run files; release runs when
// the merge closes, also when opening fails.
func mergeRuns(job string, r, want int, runs []sortedRun, c *obs.Counter, release func()) (*mergeIter, error) {
	k := max(len(runs), 1) // no runs: one drained source
	it := &mergeIter{srcs: make([]mergeSrc, k), tree: make([]int, k), job: job, r: r, want: want, release: release}
	// Ords of different runs compare only under one skip. A sorted run's
	// keys all lie between its first and its last, so the prefix those
	// share across every run is shared by every key.
	var ref string
	for i, run := range runs {
		lo, hi := run.Lo, run.Hi
		if run.path == "" {
			lo, hi = run.kvs[0].Key, run.kvs[len(run.kvs)-1].Key
		}
		if i == 0 {
			ref, it.skip = lo, len(lo)
		}
		it.skip = normkey.CommonPrefix(ref, lo, it.skip)
		it.skip = normkey.CommonPrefix(ref, hi, it.skip)
	}
	for s, run := range runs {
		src := &it.srcs[s]
		src.rest = run.kvs
		if run.path != "" {
			f, err := os.Open(run.path)
			if err != nil {
				it.Close()
				return nil, it.wrap(fmt.Errorf("map task %d's run: %w", run.m, err))
			}
			rd := runReaders.Get().(*extsort.RunReader)
			rd.Reset(countingReader{io.NewSectionReader(f, run.Off, run.End-run.Off), c})
			src.file = &fileCursor{f: f, rd: rd, m: uint64(run.m)}
			if err := src.file.next(&src.rest); err != nil {
				it.Close()
				return nil, it.wrap(err)
			}
		}
		if len(src.rest) > 0 {
			src.ord = normkey.Ord(src.rest[0].Key, it.skip)
		}
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
	return it, nil
}

func (it *mergeIter) wrap(err error) error {
	return fmt.Errorf("mapreduce: %s shuffle for reduce %d: %w", it.job, it.r, err)
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
	if it.err != nil {
		return KeyValue{}, false, it.err
	}
	s := it.tree[0]
	src := &it.srcs[s]
	if len(src.rest) == 0 {
		if it.n != it.want {
			it.err = it.wrap(fmt.Errorf("merged %d records, map tasks produced %d", it.n, it.want))
			return KeyValue{}, false, it.err
		}
		return KeyValue{}, false, nil
	}
	kv := src.rest[0]
	src.rest = src.rest[1:]
	if len(src.rest) == 0 && src.file != nil {
		if err := src.file.next(&src.rest); err != nil {
			it.err = it.wrap(err)
			return KeyValue{}, false, it.err
		}
	}
	it.n++
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

func (it *mergeIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	for _, src := range it.srcs {
		if src.file != nil {
			src.file.f.Close()
			runReaders.Put(src.file.rd)
		}
	}
	it.release()
	return nil
}
