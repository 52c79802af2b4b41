package mapreduce

// The partition store, the one reduce input. Partition r's reduce input
// is a partitionStore: a list of key-sorted runs, one per contributing
// map task, each in memory or in a run file, that one merge reads in
// map-index order (mergeIter in shuffle.go). Every job makes one store
// per partition, to which each local map task hands its runs as it
// commits; a reduce lease makes one of its partition's segments of the
// map files on the fleet's shared directory (mapFileInput in
// remote.go). Under a memory budget — MemBudget, the one road to disk —
// a store charges the runs it buffers to its account and may spill them
// to a file of its own; without one its account is nil and its runs
// stay in memory as the mappers made them. The record sequence is the
// same whatever the route, which keeps Result/trace/quality bytes
// independent of storage mode: a run moves between memory and disk only
// whole, so merging the runs in map-index order by (key, run) reproduces
// exactly the stable (key, map-index) order, no matter when or which
// runs were spilled.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"proger/internal/extsort"
	"proger/internal/membudget"
	"proger/internal/obs"
)

// kvMemOverhead approximates the per-record bookkeeping bytes beyond
// the key/value payloads (string + slice headers, padding). Budget
// accounting is deliberately approximate — see membudget.
const kvMemOverhead = 48

// ownValues moves the values of a run the caller owns into one array of
// the run's own, so that spilling the run frees the value bytes it was
// charged for. A mapper may cut the values of all its partitions from
// shared chunks (ValueChunks), and a chunk lives as long as any value
// cut from it: without the copy a spilled run would free nothing while
// another partition's run of the same task stayed resident. Each
// distinct value is copied once, with its capacity clipped, and the
// records that share it (Job 2 emits an entity's one value under every
// block of its path) share the copy; a nil value stays nil. It returns
// the run's resident size, which the budget charges: the records'
// bookkeeping and keys, and the value array it allocated.
func ownValues(kvs []KeyValue) int64 {
	at := valueOffsets.Get().(map[valueSpan]int)
	defer func() { clear(at); valueOffsets.Put(at) }()
	b, n := int64(len(kvs))*kvMemOverhead, 0
	for _, kv := range kvs {
		b += int64(len(kv.Key))
		if len(kv.Value) > 0 {
			if _, ok := at[valueSpan{&kv.Value[0], len(kv.Value)}]; !ok {
				at[valueSpan{&kv.Value[0], len(kv.Value)}] = n
				n += len(kv.Value)
			}
		}
	}
	own := make([]byte, 0, n)
	for i, kv := range kvs {
		switch {
		case kv.Value == nil:
		case len(kv.Value) == 0:
			kvs[i].Value = own[len(own):len(own):len(own)]
		default:
			// Offsets were handed out in record order, so a value's first
			// record is the one whose offset is the end of what is copied.
			off := at[valueSpan{&kv.Value[0], len(kv.Value)}]
			if off == len(own) {
				own = append(own, kv.Value...)
			}
			kvs[i].Value = own[off : off+len(kv.Value) : off+len(kv.Value)]
		}
	}
	return b + int64(n)
}

// valueSpan identifies a value by its first byte and its length; a pool
// of valueOffsets lends ownValues its table of the values it placed.
type valueSpan struct {
	p *byte
	n int
}

var valueOffsets = sync.Pool{New: func() any { return map[valueSpan]int{} }}

// spillRun is one map task's run in a partitionStore. bytes is what the
// budget account holds for it while it is in memory; 0 while its
// reservation is still in flight or without a budget, and a forced
// spill moves only runs whose charge has landed (spilling another would
// corrupt the ledger).
type spillRun struct {
	sortedRun
	bytes int64
}

// partitionStore is partition r's reduce input. Runs are ingested
// whole (addRun) and buffer in memory, charged against the budget
// account when there is one; a budget-forced spill appends each
// buffered run to the store's one spill file as a segment of its own,
// so a spill merges nothing. Iter merges the runs, wherever they are,
// by (key, map index).
type partitionStore struct {
	job    string
	r      int
	parent string             // spill parent dir; "" = system temp
	acct   *membudget.Account // nil without a budget: nothing spills
	c      *obs.Counter       // counts the bytes a lease reads off map files; nil elsewhere

	mu      sync.Mutex
	file    *os.File    // the spill file, created by the first spill
	out     runFile     // writes file
	runs    []*spillRun // in ingestion order
	total   int
	readers int // live iterators; pins memory runs against spilling
	closed  bool
}

// newPartitionStore creates the store for reduce partition r. Under a
// memory budget its buffered bytes are charged to a fresh cfg.MemBudget
// account, whose forced-spill callback flushes the buffer; without one
// the account is nil.
func newPartitionStore(cfg *Config, r int) *partitionStore {
	st := &partitionStore{job: cfg.Name, r: r, parent: cfg.SpillDir}
	st.acct = cfg.MemBudget.NewAccount(fmt.Sprintf("%s/shuffle-%d", cfg.Name, r), st.budgetSpill)
	return st
}

// addRun ingests map task m's pre-sorted run for this partition —
// under a budget with its values made its own (ownValues); without one
// as the mapper made it, copying nothing. Safe for concurrent callers
// (map tasks commit concurrently, in any order); Iter orders the runs by
// map index. The run is published before its bytes are charged — so a
// concurrent charge that picks this store as victim always sees a
// spillable buffer — but stays uncharged (unspillable) until the
// reservation lands, keeping the ledger exact. Self-spill during the
// charge is safe for the same reason: only settled runs move.
func (st *partitionStore) addRun(m int, kvs []KeyValue) error {
	if len(kvs) == 0 {
		return nil
	}
	var b int64
	if st.acct != nil {
		b = ownValues(kvs)
	}
	run := &spillRun{sortedRun: sortedRun{m: m, kvs: kvs}}
	st.mu.Lock()
	st.runs = append(st.runs, run)
	st.total += len(kvs)
	st.mu.Unlock()
	if err := st.acct.Charge(b); err != nil {
		st.mu.Lock()
		st.runs = slices.DeleteFunc(st.runs, func(r *spillRun) bool { return r == run })
		st.total -= len(kvs)
		st.mu.Unlock()
		return err
	}
	st.mu.Lock()
	run.bytes = b
	st.mu.Unlock()
	return nil
}

// budgetSpill is the membudget callback: append every charged buffered
// run to the spill file and report the bytes freed. Live
// iterators pin the buffer (their merge cursors point into it), so a
// store being read reports no progress instead of corrupting the pass.
func (st *partitionStore) budgetSpill() (int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.readers > 0 {
		return 0, nil
	}
	var freed int64
	for _, run := range st.runs {
		if run.path != "" || run.bytes == 0 {
			continue // on disk already, or its charge is still in flight
		}
		if err := st.spillLocked(run); err != nil {
			return 0, fmt.Errorf("mapreduce: %s shuffle for reduce %d: %w", st.job, st.r, err)
		}
		freed += run.bytes
	}
	return freed, nil
}

// spillLocked appends run's records to the spill file as a run stream
// of their own and keeps the segment and the run's key bounds in place
// of the records. One file per store, not per run: creating a file
// costs more than the run takes to write. Caller holds st.mu.
func (st *partitionStore) spillLocked(run *spillRun) error {
	if st.file == nil {
		f, err := os.CreateTemp(st.parent, "proger-shuffle-*.spill")
		if err != nil {
			return err
		}
		st.file, st.out = f, runFile{w: f}
	}
	// A failed spill's bytes stay in the file, where no segment names them.
	part, err := st.out.appendRun(run.m, run.kvs)
	if err != nil {
		return err
	}
	run.sortedRun = sortedRun{m: run.m, path: st.file.Name(), RunPart: part}
	return nil
}

// RunPart is one sorted run in a run file: the segment [Off, End)
// holding its N records as a stream of their own, and its first and
// last keys Lo and Hi (empty when N is 0). A fleet map task reports one
// per partition of its file.
type RunPart struct {
	N        int
	Off, End int64
	Lo, Hi   string
}

// runFile is a file being written as run streams back to back — a
// spill file, or a fleet map task's file. off is the bytes written so
// far, where the next stream begins; c, when non-nil, counts them.
type runFile struct {
	w   io.Writer
	off int64
	c   *obs.Counter
}

func (rf *runFile) Write(p []byte) (int, error) {
	n, err := rf.w.Write(p)
	rf.off += int64(n)
	rf.c.Add(int64(n))
	return n, err
}

// appendRun writes kvs, map task m's key-sorted run, as a run stream of
// its own, every record carrying m as its seq. It is the one writer of
// on-disk runs.
func (rf *runFile) appendRun(m int, kvs []KeyValue) (RunPart, error) {
	part := RunPart{N: len(kvs), Off: rf.off}
	rw := runWriters.Get().(*extsort.RunWriter)
	defer runWriters.Put(rw)
	rw.Reset(rf)
	for _, kv := range kvs {
		if err := rw.WriteRecord(uint64(m), kv.Key, kv.Value); err != nil {
			return RunPart{}, err
		}
	}
	if err := rw.Flush(); err != nil {
		return RunPart{}, err
	}
	part.End = rf.off
	if len(kvs) > 0 {
		part.Lo, part.Hi = strings.Clone(kvs[0].Key), strings.Clone(kvs[len(kvs)-1].Key)
	}
	return part, nil
}

// runWriters lends run writers: a file holds a run stream per run, and
// a frame buffer per stream would outweigh the smaller ones.
var runWriters = sync.Pool{New: func() any { return extsort.NewRunWriter(nil) }}

// commitRunFile writes the file dir/name atomically: write fills a temp
// file beside it, which is then renamed into place, replacing any file
// of that name. A failure at any step removes the temp file. c, when
// non-nil, counts the bytes written.
func commitRunFile(dir, name string, c *obs.Counter, write func(*runFile) error) error {
	f, err := os.CreateTemp(dir, name+".tmp-")
	if err != nil {
		return err
	}
	err = write(&runFile{w: f, c: c})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Len is the number of records the store's runs hold.
func (st *partitionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// Iter opens an independent merged pass over the runs, in memory and
// on disk. It may be called several times, also concurrently — each pass opens its own file handles, and live passes
// pin the memory buffer.
func (st *partitionStore) Iter() (*mergeIter, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, fmt.Errorf("mapreduce: %s shuffle for reduce %d: Iter after Close", st.job, st.r)
	}
	runs := make([]sortedRun, len(st.runs))
	for i, run := range st.runs {
		runs[i] = run.sortedRun
	}
	total := st.total
	st.readers++
	st.mu.Unlock()
	slices.SortFunc(runs, func(a, b sortedRun) int { return a.m - b.m })
	return mergeRuns(st.job, st.r, total, runs, st.c, func() {
		st.mu.Lock()
		st.readers--
		st.mu.Unlock()
	})
}

// Close removes the spill file, drops the buffer, and settles the
// budget account.
func (st *partitionStore) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	f := st.file
	st.file, st.runs = nil, nil
	st.mu.Unlock()
	st.acct.Close()
	if f == nil {
		return nil
	}
	f.Close()
	return os.Remove(f.Name())
}
