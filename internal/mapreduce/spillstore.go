package mapreduce

// The pluggable shuffle storage layer. A reduce task's input is a
// reduceInput — either the map tasks' in-memory runs (memInput in
// shuffle.go, the classic path), a spillStore holding sorted runs that
// may live in memory, on disk, or both, or, in a reduce lease, the map
// tasks' shared run files (mapRunsInput in remote.go). Which one a
// partition gets is a pure host-machine decision (MemBudget, the one
// road to disk, or a transport); the record sequence each yields is
// byte-identical, which is what keeps Result/trace/quality bytes
// independent of storage mode. The last two read through one merge,
// runMerge.
//
// Ordering invariant: every run is tagged with a priority — its map
// task index — and all merges compare (key, prio). Because one run is
// ingested exactly once and moved between memory and disk only whole,
// a given prio lives in exactly one source at any time, so merging
// arbitrary groupings of runs reproduces exactly the stable
// (key, map-index) order of the in-memory k-way merge (mergeIter), no
// matter when or how runs were spilled.

import (
	"fmt"
	"io"
	"os"
	"sync"

	"proger/internal/extsort"
	"proger/internal/membudget"
	"proger/internal/obs"
)

// reduceInput is a reduce task's shuffled, merge-sorted input.
// Iter may be called multiple times (retries, speculation) and
// concurrently (a speculative shuffle check can overlap the reduce
// task); each call yields an independent pass over the same records.
// An input owns nothing its reader must release: the one that holds
// host resources, a partition's spillStore, belongs to phaseOutputs.
type reduceInput interface {
	Len() int
	Iter() (kvIter, error)
}

// kvIter streams records in (key, map-index) order.
type kvIter interface {
	Next() (KeyValue, bool, error)
	Close() error
}

// kvMemOverhead approximates the per-record bookkeeping bytes beyond
// the key/value payloads (string + slice headers, padding). Budget
// accounting is deliberately approximate — see membudget.
const kvMemOverhead = 48

// kvRunBytes estimates the resident size of one run.
func kvRunBytes(kvs []KeyValue) int64 {
	b := int64(len(kvs)) * kvMemOverhead
	for _, kv := range kvs {
		b += int64(len(kv.Key)) + int64(len(kv.Value))
	}
	return b
}

// ownValues moves the values of a run the caller owns into one array of
// the run's own, so that spilling the run frees the value bytes it was
// charged for. A mapper may cut the values of all its partitions from
// shared chunks (ValueChunks), and a chunk lives as long as any value
// cut from it: without the copy a spilled run would free nothing while
// another partition's run of the same task stayed resident. Each value
// is copied whole, as kvRunBytes charges it, with its capacity clipped;
// a nil value stays nil.
func ownValues(kvs []KeyValue) {
	n := 0
	for _, kv := range kvs {
		n += len(kv.Value)
	}
	own := make([]byte, 0, n)
	for i, kv := range kvs {
		if kv.Value != nil {
			at := len(own)
			own = append(own, kv.Value...)
			kvs[i].Value = own[at:len(own):len(own)]
		}
	}
}

// prioKV is a record tagged with its run's merge priority.
type prioKV struct {
	prio uint64
	kv   KeyValue
}

func prioKVCmp(a, b prioKV) int {
	if a.kv.Key != b.kv.Key {
		if a.kv.Key < b.kv.Key {
			return -1
		}
		return 1
	}
	switch {
	case a.prio < b.prio:
		return -1
	case a.prio > b.prio:
		return 1
	}
	return 0
}

// sliceSource is an extsort.Merger source over one in-memory run, every
// record tagged prio.
func sliceSource(prio uint64, kvs []KeyValue) func() (prioKV, bool) {
	pos := 0
	return func() (prioKV, bool) {
		if pos >= len(kvs) {
			return prioKV{}, false
		}
		rec := prioKV{prio: prio, kv: kvs[pos]}
		pos++
		return rec, true
	}
}

// runFileSource is an extsort.Merger source over one run file, each
// record tagged with the priority it was written with. A read error
// ends the source; the first one a merge meets is kept in *errp.
func runFileSource(rr *extsort.RunReader, errp *error) func() (prioKV, bool) {
	return func() (prioKV, bool) {
		seq, key, val, err := rr.Next()
		if err == io.EOF {
			return prioKV{}, false
		}
		if err != nil {
			if *errp == nil {
				*errp = err
			}
			return prioKV{}, false
		}
		return prioKV{prio: seq, kv: KeyValue{Key: key, Value: val}}, true
	}
}

// spillRun is one map task's pre-sorted contribution, held in memory.
// charged marks that its bytes are recorded with the budget account; a
// forced spill moves only charged runs (an uncharged run's reservation
// is still in flight, and spilling it would corrupt the ledger).
type spillRun struct {
	prio    uint64
	kvs     []KeyValue
	charged bool
}

// spillStore is the disk-capable reduceInput. Runs are ingested whole
// (addRun) and buffer in memory charged against the budget account; a
// budget-forced spill merges everything buffered into one run file.
// Iter k-way merges memory and disk sources by (key, prio).
type spillStore struct {
	job    string
	r      int
	parent string // spill parent dir; "" = system temp
	acct   *membudget.Account

	mu       sync.Mutex
	tmpDir   string
	memRuns  []*spillRun
	memBytes int64 // charged resident bytes
	files    []string
	total    int
	readers  int // live iterators; pins memory runs against spilling
	closed   bool

	// Budget-pressure driven, reported only through the metrics registry.
	forcedSpills int64
	spilledBytes int64
}

// newSpillStore creates a store for reduce partition r whose buffered
// bytes are charged to a fresh cfg.MemBudget account; the account's
// forced-spill callback flushes the buffer.
func newSpillStore(cfg *Config, r int) *spillStore {
	st := &spillStore{job: cfg.Name, r: r, parent: cfg.SpillDir}
	st.acct = cfg.MemBudget.NewAccount(fmt.Sprintf("%s/shuffle-%d", cfg.Name, r), st.budgetSpill)
	return st
}

// addRun ingests one map task's pre-sorted run for this partition.
// Safe for concurrent callers (pipelined map tasks commit in any
// order); prio disjointness keeps the merged order independent of
// ingestion order. The run is published before its bytes are charged —
// so a concurrent charge that picks this store as victim always sees a
// spillable buffer — but stays uncharged (unspillable) until the
// reservation lands, keeping the ledger exact. Self-spill during the
// charge is safe for the same reason: only settled runs move.
func (st *spillStore) addRun(prio int, kvs []KeyValue) error {
	if len(kvs) == 0 {
		return nil
	}
	b := kvRunBytes(kvs)
	run := &spillRun{prio: uint64(prio), kvs: kvs}
	st.mu.Lock()
	st.memRuns = append(st.memRuns, run)
	st.total += len(kvs)
	st.mu.Unlock()
	if err := st.acct.Charge(b); err != nil {
		st.mu.Lock()
		for i, r := range st.memRuns {
			if r == run {
				st.memRuns = append(st.memRuns[:i], st.memRuns[i+1:]...)
				st.total -= len(kvs)
				break
			}
		}
		st.mu.Unlock()
		return err
	}
	st.mu.Lock()
	run.charged = true
	st.memBytes += b
	st.mu.Unlock()
	return nil
}

// budgetSpill is the membudget callback: flush the charged buffered
// runs into one merged run file and report the bytes freed. Live
// iterators pin the buffer (their merge cursors point into it), so a
// store being read reports no progress instead of corrupting the pass.
func (st *spillStore) budgetSpill() (int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.readers > 0 || st.memBytes == 0 {
		return 0, nil
	}
	var settled, pending []*spillRun
	for _, r := range st.memRuns {
		if r.charged {
			settled = append(settled, r)
		} else {
			pending = append(pending, r)
		}
	}
	if len(settled) == 0 {
		return 0, nil
	}
	if err := st.writeRunFileLocked(settled); err != nil {
		return 0, err
	}
	freed := st.memBytes
	st.memRuns = pending
	st.memBytes = 0
	st.forcedSpills++
	st.spilledBytes += freed
	return freed, nil
}

// writeRunFileLocked merges the given runs by (key, prio) into one new
// run file. Caller holds st.mu.
func (st *spillStore) writeRunFileLocked(runs []*spillRun) error {
	if st.tmpDir == "" {
		dir, err := os.MkdirTemp(st.parent, "proger-shuffle-*")
		if err != nil {
			return fmt.Errorf("mapreduce: %s shuffle for reduce %d: %w", st.job, st.r, err)
		}
		st.tmpDir = dir
	}
	pulls := make([]func() (prioKV, bool), len(runs))
	for i, run := range runs {
		pulls[i] = sliceSource(run.prio, run.kvs)
	}
	merger := extsort.NewMerger(pulls, prioKVCmp)
	path, err := writeRunFile(st.tmpDir, "run-*.spill", nil, func(rw *extsort.RunWriter) error {
		for {
			rec, ok := merger.Next()
			if !ok {
				return nil
			}
			if err := rw.WriteRecord(rec.prio, rec.kv.Key, rec.kv.Value); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return fmt.Errorf("mapreduce: %s shuffle for reduce %d: %w", st.job, st.r, err)
	}
	st.files = append(st.files, path)
	return nil
}

// writeRunFile creates a new run file in dir, named from pattern as by
// os.CreateTemp, streams records into it and flushes and closes it. It
// returns the file's path; a failure at any step removes the partial
// file. out, when non-nil, wraps the file the records go to (to count
// the bytes written).
func writeRunFile(dir, pattern string, out func(*os.File) io.Writer, records func(*extsort.RunWriter) error) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	var w io.Writer = f
	if out != nil {
		w = out(f)
	}
	rw := extsort.NewRunWriter(w)
	err = records(rw)
	if err == nil {
		err = rw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// budgetStats reports the budget-pressure spill activity (forced spill
// count, bytes moved to disk) for the metrics registry.
func (st *spillStore) budgetStats() (int64, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.forcedSpills, st.spilledBytes
}

// Len implements reduceInput.
func (st *spillStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// Iter implements reduceInput: an independent merged pass over all
// memory and disk runs. Concurrent passes are safe — each opens its
// own file handles, and live passes pin the memory buffer.
func (st *spillStore) Iter() (kvIter, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, fmt.Errorf("mapreduce: %s shuffle for reduce %d: Iter after Close", st.job, st.r)
	}
	pulls := make([]func() (prioKV, bool), 0, len(st.memRuns)+len(st.files))
	for _, run := range st.memRuns {
		pulls = append(pulls, sliceSource(run.prio, run.kvs))
	}
	it, err := openRunMerge(st.job, st.r, st.total, pulls, st.files, nil)
	if err != nil {
		return nil, err
	}
	st.readers++
	it.release = func() {
		st.mu.Lock()
		st.readers--
		st.mu.Unlock()
	}
	return it, nil
}

// runMerge is the one merged pass over a partition's sorted runs, held
// in memory or in run files, used by a spillStore and by a reduce
// lease reading the map tasks' shared run files (mapRunsInput): an
// extsort.Merger by (key, prio). It must yield exactly want records; a
// pass that ends short or long fails, naming the job, the partition and
// both counts.
type runMerge struct {
	job     string
	r       int
	want, n int
	fhs     []*os.File
	merger  *extsort.Merger[prioKV]
	err     error
	release func() // run once by Close; nil = nothing to release
	done    bool
}

// openRunMerge opens the run files at paths and merges them with the
// in-memory sources pulls. c, when non-nil, counts the bytes read off
// the files.
func openRunMerge(job string, r, want int, pulls []func() (prioKV, bool), paths []string, c *obs.Counter) (*runMerge, error) {
	it := &runMerge{job: job, r: r, want: want}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			it.closeFiles()
			return nil, fmt.Errorf("mapreduce: %s shuffle for reduce %d: %w", job, r, err)
		}
		it.fhs = append(it.fhs, f)
		pulls = append(pulls, runFileSource(extsort.NewRunReader(countingReader{f, c}), &it.err))
	}
	it.merger = extsort.NewMerger(pulls, prioKVCmp)
	return it, nil
}

func (it *runMerge) Next() (KeyValue, bool, error) {
	var rec prioKV
	ok := false
	if it.err == nil {
		rec, ok = it.merger.Next()
	}
	if it.err == nil && !ok && it.n != it.want {
		it.err = fmt.Errorf("merged %d records, map tasks produced %d", it.n, it.want)
	}
	if it.err != nil {
		return KeyValue{}, false, fmt.Errorf("mapreduce: %s shuffle for reduce %d: %w", it.job, it.r, it.err)
	}
	if !ok {
		return KeyValue{}, false, nil
	}
	it.n++
	return rec.kv, true, nil
}

func (it *runMerge) closeFiles() {
	for _, f := range it.fhs {
		f.Close()
	}
	it.fhs = nil
}

func (it *runMerge) Close() error {
	if it.done {
		return nil
	}
	it.done = true
	it.closeFiles()
	if it.release != nil {
		it.release()
	}
	return nil
}

// Close removes run files, drops the buffer, and settles the budget
// account.
func (st *spillStore) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	files := st.files
	tmp := st.tmpDir
	st.files, st.tmpDir = nil, ""
	st.memRuns = nil
	st.memBytes = 0
	st.mu.Unlock()
	st.acct.Close()
	var first error
	for _, path := range files {
		if err := os.Remove(path); err != nil && first == nil && !os.IsNotExist(err) {
			first = err
		}
	}
	if tmp != "" {
		if err := os.RemoveAll(tmp); err != nil && first == nil {
			first = err
		}
	}
	return first
}
