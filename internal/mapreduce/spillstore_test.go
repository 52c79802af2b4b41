package mapreduce

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proger/internal/costmodel"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// spillEverything puts cfg under a memory budget below any two runs, so
// that every run after the first forces a spill, and gives it the
// registry that counts them (see requireSpilled).
func spillEverything(cfg *Config) {
	cfg.MemBudget = membudget.New(64)
	cfg.Metrics = obs.NewRegistry()
}

// requireSpilled fails t unless the budget-governed run of cfg really
// reached disk: a budget that turns out large enough to stay in memory
// would quietly compare the in-memory shuffle with itself.
func requireSpilled(t *testing.T, cfg *Config) {
	t.Helper()
	if cfg.Metrics.Counter(CounterBudgetForcedSpills).Value() == 0 {
		t.Fatalf("job %q: the memory budget forced no spill", cfg.Name)
	}
}

// storeConfig builds a minimal Config for driving a partitionStore
// under a budget directly in tests.
func storeConfig(t *testing.T, budget int64) (*Config, *membudget.Manager) {
	t.Helper()
	mgr := membudget.New(budget)
	return &Config{Name: "store-test", SpillDir: t.TempDir(), MemBudget: mgr}, mgr
}

// storeRuns builds map-task runs with shared keys so that the stable
// (key, map-index) merge order is observable in the values.
func storeRuns(mapTasks, perRun int) [][]KeyValue {
	runs := make([][]KeyValue, mapTasks)
	for m := range runs {
		run := make([]KeyValue, perRun)
		for i := range run {
			run[i] = KeyValue{
				Key:   fmt.Sprintf("k%02d", i%5),
				Value: []byte(fmt.Sprintf("m%d-i%d", m, i)),
			}
		}
		runs[m] = sortRun(run)
	}
	return runs
}

func drainInput(t *testing.T, in *partitionStore) []KeyValue {
	t.Helper()
	it, err := in.Iter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []KeyValue
	for {
		kv, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, kv)
	}
}

// TestSpillStoreMatchesMemoryMerge: whatever mix of buffered and
// spilled runs the store holds, iteration yields exactly the stable
// k-way merge the in-memory shuffle produces — including when runs
// arrive out of map-index order and a forced spill lands mid-ingest.
func TestSpillStoreMatchesMemoryMerge(t *testing.T) {
	runs := storeRuns(5, 40)
	var total int
	for _, run := range runs {
		total += len(run)
	}
	want := drainInput(t, memRuns(runs))

	cfg, _ := storeConfig(t, 1<<30) // roomy: no pressure unless forced
	st := newPartitionStore(cfg, 0)
	defer st.Close()
	// Ingest out of order, spilling the buffer partway through.
	order := []int{3, 0, 4}
	for _, m := range order {
		if err := st.addRun(m, runs[m]); err != nil {
			t.Fatal(err)
		}
	}
	if freed, err := st.budgetSpill(); err != nil || freed == 0 {
		t.Fatalf("budgetSpill freed %d, err %v", freed, err)
	}
	for _, m := range []int{2, 1} {
		if err := st.addRun(m, runs[m]); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != total {
		t.Fatalf("Len = %d, want %d", st.Len(), total)
	}
	got := drainInput(t, st)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spill store merge order diverged from in-memory stable merge")
	}
	// A second pass must yield the same records (iterators are
	// independent).
	if again := drainInput(t, st); !reflect.DeepEqual(again, want) {
		t.Fatal("second iteration diverged")
	}
}

// TestSpillStoreIterPinsBuffer: a live iterator holds merge cursors
// into the memory runs, so a budget spill must report no progress
// instead of mutating them.
func TestSpillStoreIterPinsBuffer(t *testing.T) {
	cfg, _ := storeConfig(t, 1<<30)
	st := newPartitionStore(cfg, 0)
	defer st.Close()
	if err := st.addRun(0, storeRuns(1, 10)[0]); err != nil {
		t.Fatal(err)
	}
	it, err := st.Iter()
	if err != nil {
		t.Fatal(err)
	}
	if freed, err := st.budgetSpill(); err != nil || freed != 0 {
		t.Fatalf("spill under live iterator freed %d, err %v — must be pinned", freed, err)
	}
	it.Close()
	if freed, err := st.budgetSpill(); err != nil || freed == 0 {
		t.Fatalf("spill after iterator close freed %d, err %v", freed, err)
	}
}

// TestSpillStoreCloseRemovesFiles: Close deletes run files, the temp
// dir, and settles the budget account.
func TestSpillStoreCloseRemovesFiles(t *testing.T) {
	cfg, mgr := storeConfig(t, 1<<30)
	st := newPartitionStore(cfg, 3)
	if err := st.addRun(0, storeRuns(1, 50)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.budgetSpill(); err != nil {
		t.Fatal(err)
	}
	if st.runs[0].path == "" {
		t.Fatal("spill produced no run file")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if used := mgr.Snapshot().Used; used != 0 {
		t.Fatalf("tracked bytes after Close = %d, want 0", used)
	}
	entries, err := os.ReadDir(cfg.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = filepath.Join(cfg.SpillDir, e.Name())
		}
		t.Errorf("spill artifacts left after Close: %v", names)
	}
}

// failAfter accepts k bytes, then fails every write the way a full
// disk does.
type failAfter struct {
	w io.Writer
	k int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n, _ := f.w.Write(p[:f.k])
		f.k = 0
		return n, errDiskFull
	}
	f.k -= len(p)
	return f.w.Write(p)
}

// TestRunFileWriteFailureLeavesNoFile: a map file whose writes fail
// part-way — before the first byte, in the first or a later frame of
// its first segment, or in its second segment — is removed with its
// temp file, and the writer's error comes back wrapped; a file whose
// writes all land holds both segments.
func TestRunFileWriteFailureLeavesNoFile(t *testing.T) {
	var run []KeyValue
	for i := 0; i < 1500; i++ {
		run = append(run, KeyValue{Key: fmt.Sprintf("key-%05d", i), Value: bytes.Repeat([]byte{'v'}, 100)})
	}
	for _, k := range []int{0, 100, 100 << 10, 200 << 10, 1 << 30} {
		dir := t.TempDir()
		var parts [2]RunPart
		err := commitRunFile(dir, mapFileName(0), nil, func(rf *runFile) error {
			rf.w = &failAfter{rf.w, k}
			for r := range parts {
				var err error
				if parts[r], err = rf.appendRun(0, run); err != nil {
					return err
				}
			}
			return nil
		})
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if k == 1<<30 {
			if err != nil || len(entries) != 1 {
				t.Fatalf("k=%d: err %v, %d files, want the map file", k, err, len(entries))
			}
			for r, p := range parts {
				in := mapFileInput("writefail", r, dir, []RunPart{p}, nil)
				if got := drainInput(t, in); len(got) != len(run) {
					t.Fatalf("k=%d: segment %d reads back %d records, want %d", k, r, len(got), len(run))
				}
			}
			continue
		}
		if !errors.Is(err, errDiskFull) {
			t.Errorf("k=%d: got error %v, want it to wrap %v", k, err, errDiskFull)
		}
		if len(entries) != 0 {
			t.Errorf("k=%d: %d partial files left in %s", k, len(entries), dir)
		}
	}
}

func TestSpillingShuffleEquivalence(t *testing.T) {
	plain := wordCountConfig(2)
	spill := wordCountConfig(2)
	spillEverything(&spill)
	spill.SpillDir = t.TempDir()
	a, err := Run(plain, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spill, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSpilled(t, &spill)
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Error("spilling shuffle changed results")
	}
	if a.End != b.End {
		t.Error("spilling shuffle changed simulated timing (it must not)")
	}
}

// TestBudgetRunMatchesMemoryRun is the storage-mode equivalence
// property at the job level: a tiny budget that forces everything
// through run files on disk must reproduce the in-memory Result —
// output bytes, timestamps, counters, schedule — exactly, across
// worker counts, and the Chrome trace bytes too.
func TestBudgetRunMatchesMemoryRun(t *testing.T) {
	type outcome struct {
		res   *Result
		trace []byte
	}
	run := func(workers int, budget int64) outcome {
		cfg := wordCountConfig(workers)
		cfg.Trace = obs.New()
		cfg.Metrics = obs.NewRegistry()
		if budget > 0 {
			cfg.MemBudget = membudget.New(budget)
			cfg.SpillDir = t.TempDir()
		}
		res, err := Run(cfg, wordCountInput(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			requireSpilled(t, &cfg)
		}
		var b bytes.Buffer
		if err := cfg.Trace.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return outcome{res: res, trace: b.Bytes()}
	}
	for _, workers := range []int{1, 8} {
		base := run(workers, 0)
		tight := run(workers, 64) // ~one small run; everything spills
		if !reflect.DeepEqual(base.res, tight.res) {
			t.Errorf("workers=%d: Result diverged between memory and budget-spill runs", workers)
		}
		if !bytes.Equal(base.trace, tight.trace) {
			t.Errorf("workers=%d: trace bytes diverged between memory and budget-spill runs", workers)
		}
	}
}

// TestBudgetRunRecordsPressure: with a budget far below the shuffle
// volume (but above any single run, so enforcement can always make
// room), the manager must observe spills while the tracked peak stays
// under the budget.
func TestBudgetRunRecordsPressure(t *testing.T) {
	var in []KeyValue
	for i := 0; i < 300; i++ {
		line := fmt.Sprintf("w%03d w%03d w%03d w%03d w%03d w%03d",
			i%40, (i+7)%40, (i+13)%40, i%9, (i+3)%9, (i+5)%9)
		in = append(in, KeyValue{Key: fmt.Sprint(i), Value: []byte(line)})
	}
	cfg := wordCountConfig(4)
	cfg.NumMapTasks = 4
	cfg.NumReduceTasks = 3
	mgr := membudget.New(32 << 10)
	cfg.MemBudget = mgr
	cfg.SpillDir = t.TempDir()
	cfg.Metrics = obs.NewRegistry()
	if _, err := Run(cfg, in, 0); err != nil {
		t.Fatal(err)
	}
	b := mgr.Snapshot()
	if b.ForcedSpills == 0 {
		t.Error("no forced spills under a tight budget")
	}
	if b.Peak > b.Budget {
		t.Errorf("tracked peak %d exceeded budget %d", b.Peak, b.Budget)
	}
	if b.ChargedTotal <= b.Budget {
		t.Errorf("charged total %d should exceed the %d budget for this workload", b.ChargedTotal, b.Budget)
	}
	if cfg.Metrics.Counter(CounterBudgetForcedSpills).Value() == 0 {
		t.Error("budget spill counter not exported to the registry")
	}
}

// TestBudgetCountersAreTheManagersLedger: two jobs run in turn on one
// manager and one registry, as a pipeline's jobs do. Each job adds its
// own spills, so the registry's counters end equal to the manager's
// totals, and the gauges hold the manager's peak and charged bytes.
func TestBudgetCountersAreTheManagersLedger(t *testing.T) {
	mgr, reg := membudget.New(64), obs.NewRegistry()
	for i := 0; i < 2; i++ {
		cfg := wordCountConfig(2)
		cfg.Name = fmt.Sprintf("job%d", i)
		cfg.MemBudget, cfg.Metrics, cfg.SpillDir = mgr, reg, t.TempDir()
		if _, err := Run(cfg, wordCountInput(), 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 && reg.Counter(CounterBudgetForcedSpills).Value() == 0 {
			t.Fatal("the first job forced no spill")
		}
	}
	b := mgr.Snapshot()
	if b.ForcedSpills == 0 || b.Used != 0 {
		t.Fatalf("manager after two jobs: %+v, want spills and nothing held", b)
	}
	if got := reg.Counter(CounterBudgetForcedSpills).Value(); got != b.ForcedSpills {
		t.Errorf("forced-spills counter = %d, manager = %d", got, b.ForcedSpills)
	}
	if got := reg.Counter(CounterBudgetSpilledBytes).Value(); got != b.SpilledBytes {
		t.Errorf("spilled-bytes counter = %d, manager = %d", got, b.SpilledBytes)
	}
	if got := reg.Gauge(GaugeMemBudgetPeakBytes).Value(); got != float64(b.Peak) {
		t.Errorf("peak gauge = %v, manager = %d", got, b.Peak)
	}
	if got := reg.Gauge(GaugeMemBudgetChargedBytes).Value(); got != float64(b.ChargedTotal) {
		t.Errorf("charged gauge = %v, manager = %d", got, b.ChargedTotal)
	}
}

// chunkMapper is wordCountMapper with its values cut from the task's
// ValueChunks, every one of them logged — which also keeps each chunk
// alive, so no later allocation can reuse its memory.
type chunkMapper struct {
	MapperBase
	vals ValueChunks
	log  *valueLog
}

type valueLog struct {
	mu      sync.Mutex
	emitted map[*byte]bool // the first byte of every emitted value
	shared  int            // values a reducer read from a mapper's chunk
}

func (m *chunkMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	for _, w := range strings.Fields(string(rec.Value)) {
		v := append(m.vals.Alloc(len(w)), w...)
		m.log.mu.Lock()
		m.log.emitted[&v[0]] = true
		m.log.mu.Unlock()
		emit.Emit(w, v)
	}
	return nil
}

// TestBudgetedRunsOwnTheirValues: under a memory budget every run a
// store holds has its values in an array of its own, not in the chunks
// its mapper cut them from — chunks that the task's runs for every other
// partition share, so that spilling the run would free none of what it
// was charged for.
func TestBudgetedRunsOwnTheirValues(t *testing.T) {
	log := &valueLog{emitted: map[*byte]bool{}}
	cfg := wordCountConfig(2)
	cfg.NumReduceTasks = 3
	cfg.NewMapper = func() Mapper { return &chunkMapper{log: log} }
	cfg.NewReducer = func() Reducer {
		return reduceFunc(func(key string, values [][]byte) {
			log.mu.Lock()
			defer log.mu.Unlock()
			for _, v := range values {
				if string(v) != key {
					t.Errorf("key %q carries value %q", key, v)
				}
				if log.emitted[&v[0]] {
					log.shared++
				}
			}
		})
	}
	cfg.MemBudget = membudget.New(1 << 30) // nothing spills: the runs are read from memory
	cfg.SpillDir = t.TempDir()
	if _, err := Run(cfg, wordCountInput(), 0); err != nil {
		t.Fatal(err)
	}
	if len(log.emitted) == 0 || log.shared > 0 {
		t.Errorf("%d of %d values reached a reducer in their mapper's chunk", log.shared, len(log.emitted))
	}

	// Records that share a value — as Job 2's share their entity's, one
	// value under every block of its path — share one copy of it, and
	// the budget charges that copy once. A prefix of a value is a value
	// of its own.
	shared, other := []byte("shared"), []byte("other")
	run := []KeyValue{{"a", shared}, {"b", other}, {"c", shared}, {"d", shared[:3]}, {"e", nil}, {"f", shared}}
	if got, want := ownValues(run), int64(len(run)*kvMemOverhead+len(run)+len("shared")+len("other")+len("sha")); got != want {
		t.Errorf("ownValues charged %d bytes, want %d", got, want)
	}
	for i, want := range []string{"shared", "other", "shared", "sha", "", "shared"} {
		if v := run[i].Value; string(v) != want || cap(v) != len(v) || (len(v) > 0 && (&v[0] == &shared[0] || &v[0] == &other[0])) {
			t.Errorf("record %d: value %q (cap %d), want its own copy of %q", i, v, cap(v), want)
		}
	}
	if run[4].Value != nil {
		t.Error("a nil value is no longer nil")
	}
	if &run[0].Value[0] != &run[2].Value[0] || &run[0].Value[0] != &run[5].Value[0] || &run[0].Value[0] == &run[3].Value[0] {
		t.Error("records that shared a value do not share its copy, or a prefix shares it")
	}
}

// TestReduceValuesStayUnwritten: the Reducer contract lets a reducer
// keep the values it is handed, and the Job-2 and Basic reducers read
// their entities from them in place (entity.Decoder), so nothing may
// write a value once Reduce has it — not the in-memory shuffle, not a
// budgeted store reading its runs from memory or merging spilled ones
// (RunReader.Next returns a fresh array per value), not a fleet's reduce
// lease merging the map run files. Every value a reducer was handed
// still reads, when the job is done, what it read when Reduce got it.
func TestReduceValuesStayUnwritten(t *testing.T) {
	type held struct{ v, was []byte }
	var (
		mu   sync.Mutex
		kept []held
	)
	configure := func(cfg *Config) {
		log := &valueLog{emitted: map[*byte]bool{}}
		cfg.NewMapper = func() Mapper { return &chunkMapper{log: log} }
		cfg.NewReducer = func() Reducer {
			return reduceFunc(func(_ string, values [][]byte) {
				mu.Lock()
				defer mu.Unlock()
				for _, v := range values {
					kept = append(kept, held{v, bytes.Clone(v)})
				}
			})
		}
	}
	check := func(name string) {
		t.Helper()
		if len(kept) == 0 {
			t.Fatalf("%s: no value reached a reducer", name)
		}
		for _, h := range kept {
			if !bytes.Equal(h.v, h.was) {
				t.Errorf("%s: a value handed to Reduce as %q reads %q after the job", name, h.was, h.v)
			}
		}
		kept = nil
	}
	for _, c := range []struct {
		name   string
		budget int64
	}{{"memory", 0}, {"budget in memory", 1 << 30}, {"spill", 64}} {
		cfg := wordCountConfig(4)
		configure(&cfg)
		if c.budget > 0 {
			cfg.MemBudget, cfg.Metrics, cfg.SpillDir = membudget.New(c.budget), obs.NewRegistry(), t.TempDir()
		}
		if _, err := Run(cfg, wordCountInput(), 0); err != nil {
			t.Fatal(err)
		}
		if c.name == "spill" {
			requireSpilled(t, &cfg)
		}
		check(c.name)
	}

	cfg := wordCountConfig(1)
	configure(&cfg)
	rr, runs := runFleetMaps(t, &cfg, wordCountInput())
	for r := range runs {
		if _, err := rr.RunTask(RemoteTask{Phase: live.PhaseReduce, Task: r, Runs: runs[r]}); err != nil {
			t.Fatal(err)
		}
	}
	check("remote")
}

// reduceFunc is a Reducer that hands each key group to a function.
type reduceFunc func(key string, values [][]byte)

func (f reduceFunc) Setup(*TaskContext) error            { return nil }
func (f reduceFunc) Cleanup(*TaskContext, Emitter) error { return nil }
func (f reduceFunc) Reduce(_ *TaskContext, key string, values [][]byte, _ Emitter) error {
	f(key, values)
	return nil
}

// TestCommittedMapRunsLeavePhaseOutputs: on every local route — under
// a budget, and without one, where the stores keep the runs as their
// mappers made them — a map task's runs go to the partition stores and
// nothing else keeps them: phaseOutputs holds no run, and once the
// stores are closed every run any map execution made is collected. So a spilled run frees what it
// was charged for.
func TestCommittedMapRunsLeavePhaseOutputs(t *testing.T) {
	for _, budget := range []bool{true, false} {
		t.Run(map[bool]string{true: "budget", false: "no budget"}[budget], func(t *testing.T) {
			cfg := wordCountConfig(4)
			if budget {
				spillEverything(&cfg)
				cfg.SpillDir = t.TempDir()
			}
			cfg.Partition, cfg.Cost = HashPartitioner, costmodel.Default() // as Run defaults them
			po := newPhaseOutputs(&cfg)
			splits := splitInput(wordCountInput(), cfg.NumMapTasks)
			b := localBodies(&cfg, nil, splits, po)
			var produced, collected atomic.Int32
			mapTask := b.mapTask
			b.mapTask = func(m int) (TaskResult, error) {
				res, err := mapTask(m)
				for _, run := range res.runs {
					if len(run) > 0 {
						produced.Add(1)
						runtime.SetFinalizer(&run[0], func(*KeyValue) { collected.Add(1) })
					}
				}
				return res, err
			}
			if err := runJobGraph(&cfg, cfg.Workers, po, b); err != nil {
				t.Fatal(err)
			}
			for m, mr := range po.mapRes {
				if mr.runs != nil {
					t.Errorf("map task %d's runs are still reachable from phaseOutputs", m)
				}
			}
			for _, st := range po.stores {
				st.Close()
			}
			if budget && cfg.MemBudget.Snapshot().ForcedSpills == 0 {
				t.Fatal("the memory budget forced no spill")
			}
			for deadline := time.Now().Add(5 * time.Second); collected.Load() < produced.Load() && time.Now().Before(deadline); {
				runtime.GC()
			}
			if n, c := produced.Load(), collected.Load(); n == 0 || c != n {
				t.Errorf("%d of the %d runs map executions made outlived their stores", n-c, n)
			}
			runtime.KeepAlive(po)
		})
	}
}

// TestEventLogSameUnderBudget: the event log's deterministic subset —
// every field but seq and wall_ms, as a set — is the same with and
// without a memory budget: under both, a reduce task's task.done carries
// its partition's record count, read from the store under a budget.
func TestEventLogSameUnderBudget(t *testing.T) {
	events := func(budget bool) []string {
		var buf bytes.Buffer
		cfg := wordCountConfig(4)
		cfg.Live = live.NewRun(live.NewEventLog(&buf))
		if budget {
			spillEverything(&cfg)
			cfg.SpillDir = t.TempDir()
		}
		if _, err := Run(cfg, wordCountInput(), 0); err != nil {
			t.Fatal(err)
		}
		if budget {
			requireSpilled(t, &cfg)
		}
		var lines []string
		reduceRecords := false
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("event %q: %v", line, err)
			}
			delete(ev, "seq")
			delete(ev, "wall_ms")
			if ev["event"] == live.EventTaskDone && ev["phase"] == string(live.PhaseReduce) && ev["records"] != 0.0 {
				reduceRecords = true
			}
			det, _ := json.Marshal(ev)
			lines = append(lines, string(det))
		}
		if !reduceRecords {
			t.Errorf("budget=%v: no reduce task.done carries a record count", budget)
		}
		slices.Sort(lines)
		return lines
	}
	if plain, budgeted := events(false), events(true); !slices.Equal(plain, budgeted) {
		t.Errorf("deterministic event subset differs under a budget:\nplain:    %v\nbudgeted: %v", plain, budgeted)
	}
}
