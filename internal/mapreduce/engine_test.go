package mapreduce

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"proger/internal/costmodel"
)

// wordCountMapper splits values into words and emits (word, "1").
type wordCountMapper struct{ MapperBase }

func (wordCountMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	for _, w := range strings.Fields(string(rec.Value)) {
		emit.Emit(w, []byte("1"))
	}
	return nil
}

// wordCountReducer emits (word, count).
type wordCountReducer struct{ ReducerBase }

func (wordCountReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	ctx.Charge(ctx.Cost.PairCompare * costmodel.Units(len(values)))
	ctx.Inc("words", int64(len(values)))
	emit.Emit(key, []byte(fmt.Sprintf("%d", len(values))))
	return nil
}

func wordCountConfig(workers int) Config {
	return Config{
		Name:           "wordcount",
		NewMapper:      func() Mapper { return wordCountMapper{} },
		NewReducer:     func() Reducer { return wordCountReducer{} },
		NumMapTasks:    3,
		NumReduceTasks: 2,
		Cluster:        Cluster{Machines: 2, SlotsPerMachine: 2},
		Workers:        workers,
	}
}

func wordCountInput() []KeyValue {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog jumps",
		"a fox and a dog",
	}
	var in []KeyValue
	for i, l := range lines {
		in = append(in, KeyValue{Key: fmt.Sprintf("%d", i), Value: []byte(l)})
	}
	return in
}

func collectCounts(res *Result) map[string]string {
	out := map[string]string{}
	for _, kv := range res.Output {
		out[kv.Key] = string(kv.Value)
	}
	return out
}

func TestWordCount(t *testing.T) {
	res, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := collectCounts(res)
	want := map[string]string{
		"the": "3", "quick": "2", "brown": "1", "fox": "2",
		"lazy": "1", "dog": "3", "jumps": "1", "a": "2", "and": "1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
	if res.Counters.Get("words") != 16 {
		t.Errorf("words counter = %d, want 16", res.Counters.Get("words"))
	}
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	res1, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Run(wordCountConfig(4), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Output, res4.Output) {
		t.Error("output differs between 1 and 4 workers")
	}
	if res1.End != res4.End || res1.MapEnd != res4.MapEnd {
		t.Error("timeline differs between 1 and 4 workers")
	}
	if !reflect.DeepEqual(res1.Counters, res4.Counters) {
		t.Error("counters differ between 1 and 4 workers")
	}
}

func TestKeysSortedAndGroupedPerReduceTask(t *testing.T) {
	res, err := Run(wordCountConfig(2), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Within a task, output keys must be strictly increasing (each key
	// reduced exactly once, in sorted order).
	perTask := map[int][]string{}
	for _, kv := range res.Output {
		perTask[kv.Task] = append(perTask[kv.Task], kv.Key)
	}
	for task, keys := range perTask {
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Errorf("task %d keys not strictly sorted: %v", task, keys)
			}
		}
	}
	// And the partitioner must route each key to its hash partition.
	for _, kv := range res.Output {
		if want := HashPartitioner(kv.Key, 2); kv.Task != want {
			t.Errorf("key %q on task %d, want %d", kv.Key, kv.Task, want)
		}
	}
}

func TestTimelineInvariants(t *testing.T) {
	res, err := Run(wordCountConfig(1), wordCountInput(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Start != 100 {
		t.Errorf("Start = %v, want 100", res.Start)
	}
	if res.MapEnd <= res.Start {
		t.Errorf("MapEnd %v should be after Start %v (setup + startup)", res.MapEnd, res.Start)
	}
	if res.End < res.MapEnd {
		t.Errorf("End %v before MapEnd %v", res.End, res.MapEnd)
	}
	for _, kv := range res.Output {
		if kv.Global < res.MapEnd {
			t.Errorf("output at %v before reduce phase start %v", kv.Global, res.MapEnd)
		}
		if kv.Global > res.End {
			t.Errorf("output at %v after job end %v", kv.Global, res.End)
		}
		if kv.Local < 0 {
			t.Errorf("negative local time %v", kv.Local)
		}
	}
	for r, start := range res.ReduceStarts {
		if start < res.MapEnd {
			t.Errorf("reduce task %d starts at %v before barrier %v", r, start, res.MapEnd)
		}
	}
}

func TestLocalTimesNonDecreasingPerTask(t *testing.T) {
	res, err := Run(wordCountConfig(1), wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]costmodel.Units{}
	for _, kv := range res.Output {
		if kv.Local < last[kv.Task] {
			t.Errorf("task %d local time went backwards: %v after %v", kv.Task, kv.Local, last[kv.Task])
		}
		last[kv.Task] = kv.Local
	}
}

func TestScheduleTasksGreedy(t *testing.T) {
	costs := []costmodel.Units{10, 20, 5, 5}
	starts, slots, end := scheduleTasks(costs, 2, 100)
	// slot0: t0 [100,110), then t2 [110,115), then t3 [115,120)
	// slot1: t1 [100,120)
	wantStarts := []costmodel.Units{100, 100, 110, 115}
	if !reflect.DeepEqual(starts, wantStarts) {
		t.Errorf("starts = %v, want %v", starts, wantStarts)
	}
	wantSlots := []int{0, 1, 0, 0}
	if !reflect.DeepEqual(slots, wantSlots) {
		t.Errorf("slots = %v, want %v", slots, wantSlots)
	}
	if end != 120 {
		t.Errorf("end = %v, want 120", end)
	}
}

func TestScheduleTasksSingleSlot(t *testing.T) {
	starts, slots, end := scheduleTasks([]costmodel.Units{1, 2, 3}, 1, 0)
	if !reflect.DeepEqual(starts, []costmodel.Units{0, 1, 3}) {
		t.Errorf("starts = %v", starts)
	}
	if !reflect.DeepEqual(slots, []int{0, 0, 0}) {
		t.Errorf("slots = %v", slots)
	}
	if end != 6 {
		t.Errorf("end = %v, want 6", end)
	}
}

func TestSplitInput(t *testing.T) {
	in := make([]KeyValue, 10)
	for i := range in {
		in[i].Key = fmt.Sprintf("%d", i)
	}
	splits := splitInput(in, 3)
	if len(splits) != 3 {
		t.Fatalf("splits = %d", len(splits))
	}
	total := 0
	for _, s := range splits {
		total += len(s)
		if len(s) < 3 || len(s) > 4 {
			t.Errorf("split size %d not near-equal", len(s))
		}
	}
	if total != 10 {
		t.Errorf("splits cover %d records, want 10", total)
	}
	// More tasks than records: some splits empty, still covers all.
	splits = splitInput(in[:2], 5)
	total = 0
	for _, s := range splits {
		total += len(s)
	}
	if total != 2 {
		t.Errorf("sparse splits cover %d, want 2", total)
	}
}

func TestHashPartitionerRange(t *testing.T) {
	f := func(key string) bool {
		for _, r := range []int{1, 2, 7, 64} {
			p := HashPartitioner(key, r)
			if p < 0 || p >= r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashPartitionerSpread(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[HashPartitioner(fmt.Sprintf("key-%d", i), 8)]++
	}
	for p, c := range counts {
		if c < 500 {
			t.Errorf("partition %d got only %d of 8000 keys", p, c)
		}
	}
}

type failingMapper struct{ MapperBase }

func (failingMapper) Map(*TaskContext, KeyValue, Emitter) error {
	return errors.New("boom")
}

func TestMapErrorPropagates(t *testing.T) {
	cfg := wordCountConfig(2)
	cfg.NewMapper = func() Mapper { return failingMapper{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("want map error, got %v", err)
	}
}

type failingReducer struct{ ReducerBase }

func (failingReducer) Reduce(*TaskContext, string, [][]byte, Emitter) error {
	return errors.New("reduce-boom")
}

func TestReduceErrorPropagates(t *testing.T) {
	cfg := wordCountConfig(2)
	cfg.NewReducer = func() Reducer { return failingReducer{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "reduce-boom") {
		t.Errorf("want reduce error, got %v", err)
	}
}

// panicMapper crashes on the second record.
type panicMapper struct {
	MapperBase
	n int
}

func (m *panicMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	m.n++
	if m.n == 2 {
		panic("injected map failure")
	}
	emit.Emit(rec.Key, rec.Value)
	return nil
}

func TestPanicInMapTaskBecomesError(t *testing.T) {
	cfg := wordCountConfig(1)
	cfg.NewMapper = func() Mapper { return &panicMapper{} } // the last split holds two records
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic-derived error, got %v", err)
	}
}

// panicReducer crashes on a specific key.
type panicReducer struct{ ReducerBase }

func (panicReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	if key == "dog" {
		panic("injected reduce failure")
	}
	return nil
}

func TestPanicInReduceTaskBecomesError(t *testing.T) {
	cfg := wordCountConfig(4)
	cfg.NewReducer = func() Reducer { return panicReducer{} }
	_, err := Run(cfg, wordCountInput(), 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("want panic-derived error, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := wordCountConfig(1)
	cases := []func(*Config){
		func(c *Config) { c.NewMapper = nil },
		func(c *Config) { c.NewReducer = nil },
		func(c *Config) { c.NumMapTasks = 0 },
		func(c *Config) { c.NumReduceTasks = -1 },
		func(c *Config) { c.Cluster.Machines = 0 },
		func(c *Config) { c.Cluster.SlotsPerMachine = 0 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg, nil, 0); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestValuesArriveInMapTaskOrder(t *testing.T) {
	// Two map tasks emit to the same key; values must arrive in map
	// task order (task 0's values first), which is what makes shuffles
	// deterministic.
	cfg := Config{
		Name: "order",
		NewMapper: func() Mapper {
			return orderMapper{}
		},
		NewReducer:     func() Reducer { return orderReducer{} },
		NumMapTasks:    2,
		NumReduceTasks: 1,
		Cluster:        Cluster{Machines: 1, SlotsPerMachine: 2},
	}
	in := []KeyValue{{Key: "a", Value: []byte("first")}, {Key: "b", Value: []byte("second")}}
	res, err := Run(cfg, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || string(res.Output[0].Value) != "first,second" {
		t.Errorf("output = %v", res.Output)
	}
}

type orderMapper struct{ MapperBase }

func (orderMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	emit.Emit("k", rec.Value)
	return nil
}

type orderReducer struct{ ReducerBase }

func (orderReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = string(v)
	}
	emit.Emit(key, []byte(strings.Join(parts, ",")))
	return nil
}

// chargingReducer charges a fixed cost before each of several emits so
// Segments has boundaries to cut at.
type chargingReducer struct{ ReducerBase }

func (chargingReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	for i := 0; i < 5; i++ {
		ctx.Charge(10)
		emit.Emit(fmt.Sprintf("%s-%d", key, i), nil)
	}
	return nil
}

func TestSegments(t *testing.T) {
	cfg := Config{
		Name:           "segments",
		NewMapper:      func() Mapper { return orderMapper{} },
		NewReducer:     func() Reducer { return chargingReducer{} },
		NumMapTasks:    1,
		NumReduceTasks: 1,
		Cluster:        Cluster{Machines: 1, SlotsPerMachine: 1},
	}
	res, err := Run(cfg, []KeyValue{{Key: "x", Value: []byte("v")}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	segs := res.Segments(0, 20)
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	// Every record must fall inside its segment bounds, and segments
	// must be contiguous.
	recCount := 0
	for i, s := range segs {
		if s.Index != i {
			t.Errorf("segment %d has index %d", i, s.Index)
		}
		for _, r := range s.Records {
			recCount++
			if r.Local < s.Start || r.Local >= s.End {
				t.Errorf("record at %v outside segment [%v,%v)", r.Local, s.Start, s.End)
			}
		}
		if i > 0 && s.Start != segs[i-1].End {
			t.Errorf("gap between segments %d and %d", i-1, i)
		}
	}
	if recCount != len(res.Output) {
		t.Errorf("segments hold %d records, output has %d", recCount, len(res.Output))
	}
}

func TestSegmentsPanicsOnBadAlpha(t *testing.T) {
	res := &Result{}
	defer func() {
		if recover() == nil {
			t.Error("Segments(alpha=0) should panic")
		}
	}()
	res.Segments(0, 0)
}

func TestChargePanicsOnNegative(t *testing.T) {
	ctx := &TaskContext{}
	defer func() {
		if recover() == nil {
			t.Error("negative charge should panic")
		}
	}()
	ctx.Charge(-1)
}

func TestCountersMergeAndNames(t *testing.T) {
	a := Counters{"x": 1, "y": 2}
	b := Counters{"y": 3, "z": 4}
	a.Merge(b)
	if a.Get("y") != 5 || a.Get("z") != 4 || a.Get("x") != 1 {
		t.Errorf("merge result %v", a)
	}
	if !reflect.DeepEqual(a.Names(), []string{"x", "y", "z"}) {
		t.Errorf("names = %v", a.Names())
	}
}

func TestTaskTypeString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("TaskType strings wrong")
	}
}

func TestMoreReduceTasksThanSlots(t *testing.T) {
	cfg := wordCountConfig(1)
	cfg.Cluster = Cluster{Machines: 1, SlotsPerMachine: 1}
	cfg.NumReduceTasks = 4
	res, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// With one slot, reduce tasks run back to back: starts strictly
	// increasing (every task has at least startup cost).
	for i := 1; i < len(res.ReduceStarts); i++ {
		if res.ReduceStarts[i] <= res.ReduceStarts[i-1] {
			t.Errorf("reduce starts not serialized: %v", res.ReduceStarts)
		}
	}
	got := collectCounts(res)
	if got["the"] != "3" {
		t.Errorf("wordcount broken under serialization: %v", got)
	}
}

func TestMergeSortedRunsStableProperty(t *testing.T) {
	// Property: merging key-sorted runs is exactly a stable sort of
	// their concatenation — equal keys surface in run (map-task) order,
	// then in within-run order. Run counts 1 and ≥2 exercise the
	// passthrough and the loser tree.
	f := func(seed int64, runCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"a", "b", "c", "d"}
		k := int(runCount%7) + 1
		runs := make([][]KeyValue, k)
		for r := range runs {
			n := rng.Intn(6) + 1 // runs are non-empty by construction
			run := make([]KeyValue, n)
			for i := range run {
				run[i] = KeyValue{
					Key:   keys[rng.Intn(len(keys))],
					Value: []byte(fmt.Sprintf("%d:%d", r, i)), // provenance tag
				}
			}
			sort.SliceStable(run, func(i, j int) bool { return run[i].Key < run[j].Key })
			runs[r] = run
		}
		var want []KeyValue
		for _, run := range runs {
			want = append(want, run...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		return reflect.DeepEqual(drainInput(t, memRuns(runs)), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWordCountAgainstReferenceProperty(t *testing.T) {
	// Property: for random inputs and random task/cluster shapes, the
	// engine's word count equals a straightforward sequential count.
	f := func(seed int64, nLines uint8, mapTasks, reduceTasks, machines uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
		var in []KeyValue
		ref := map[string]int{}
		for i := 0; i < int(nLines%40)+1; i++ {
			var line []string
			for j := 0; j < rng.Intn(8); j++ {
				w := words[rng.Intn(len(words))]
				line = append(line, w)
				ref[w]++
			}
			in = append(in, KeyValue{Key: fmt.Sprint(i), Value: []byte(strings.Join(line, " "))})
		}
		cfg := Config{
			Name:           "prop",
			NewMapper:      func() Mapper { return wordCountMapper{} },
			NewReducer:     func() Reducer { return wordCountReducer{} },
			NumMapTasks:    int(mapTasks%5) + 1,
			NumReduceTasks: int(reduceTasks%5) + 1,
			Cluster:        Cluster{Machines: int(machines%4) + 1, SlotsPerMachine: 2},
		}
		res, err := Run(cfg, in, 0)
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, kv := range res.Output {
			n, err := strconv.Atoi(string(kv.Value))
			if err != nil {
				return false
			}
			got[kv.Key] = n
		}
		if len(got) != len(ref) {
			return false
		}
		for w, n := range ref {
			if got[w] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestValueChunks: every value a mapper cuts from its chunks has exactly
// the capacity it asked for, so appending past it reallocates instead of
// writing into the next value; values never share bytes; chunks double
// from firstValueChunk to lastValueChunk and no further; and a value
// above a quarter chunk is an allocation of its own that leaves the
// chunk in use be.
func TestValueChunks(t *testing.T) {
	var c ValueChunks
	rng := rand.New(rand.NewSource(9))
	var vals [][]byte
	var sizes []int // each new chunk's size
	for i := 0; i < 3000; i++ {
		n := rng.Intn(300)
		if i%500 == 0 {
			n = lastValueChunk/4 + 1
		}
		before := c.chunk
		v := c.Alloc(n)
		if len(v) != 0 || cap(v) != n {
			t.Fatalf("Alloc(%d) = len %d cap %d", n, len(v), cap(v))
		}
		if n > lastValueChunk/4 && (len(c.chunk) != len(before) || cap(c.chunk) != cap(before)) {
			t.Fatalf("Alloc(%d) cut a large value from the chunk", n)
		}
		if cap(c.chunk) > 0 && (cap(before) == 0 || &c.chunk[:1][0] != &before[:1][0]) {
			sizes = append(sizes, cap(c.chunk))
		}
		for j := 0; j < n; j++ {
			v = append(v, byte(i))
		}
		vals = append(vals, v)
	}
	for i, v := range vals {
		for _, b := range v {
			if b != byte(i) {
				t.Fatalf("value %d was overwritten by a later one", i)
			}
		}
	}
	for i, size := range sizes {
		if want := min(firstValueChunk<<i, lastValueChunk); size != want {
			t.Fatalf("chunk sizes %v: chunk %d should be %d", sizes, i, want)
		}
	}
	if len(sizes) < 8 {
		t.Fatalf("chunk sizes %v: never a chunk past the bound", sizes)
	}
}
