package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// randomKVRuns builds mapTasks runs of unsorted key-value records drawn
// from a small key alphabet (lots of ties) with values that uniquely
// identify (run, position), so any ordering deviation is visible.
func randomKVRuns(rng *rand.Rand, mapTasks, maxPerRun int) [][]KeyValue {
	runs := make([][]KeyValue, mapTasks)
	for m := range runs {
		n := rng.Intn(maxPerRun + 1)
		run := make([]KeyValue, n)
		for i := range run {
			run[i] = KeyValue{
				Key:   fmt.Sprintf("k%02d", rng.Intn(12)),
				Value: []byte(fmt.Sprintf("m%d-i%d", m, i)),
			}
		}
		runs[m] = run
	}
	return runs
}

// legacyShuffle is the pre-merge reference: concatenate the raw map
// runs in map-task order and stably sort the concatenation by key —
// exactly what the engine's old in-memory shuffle did.
func legacyShuffle(runs [][]KeyValue) []KeyValue {
	var out []KeyValue
	for _, run := range runs {
		out = append(out, run...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// sortRun is the map side on a raw run that is a partition of its own:
// sortInto through the identity selection, into a new slice.
func sortRun(run []KeyValue) []KeyValue {
	sel := make([]int32, len(run))
	for i := range sel {
		sel[i] = int32(i)
	}
	sorted := make([]KeyValue, len(run))
	new(runSorter).sortInto(sorted, run, sel)
	return sorted
}

// sortedRunsInput does the map side of the in-memory shuffle on raw map
// runs and collects them as a reduce task does: sort each, keep the
// non-empty ones in map-index order.
func sortedRunsInput(runs [][]KeyValue) *partitionStore {
	sorted := make([][]KeyValue, len(runs))
	for m, run := range runs {
		sorted[m] = sortRun(run)
	}
	return memRuns(sorted)
}

// memRuns is the reduce input of sorted runs held in memory, as a
// partition store without a budget holds the runs its map tasks hand
// over.
func memRuns(runs [][]KeyValue) *partitionStore {
	st := newPartitionStore(&Config{Name: "mem-runs"}, 0)
	for m, run := range runs {
		if err := st.addRun(m, run); err != nil {
			panic(err) // a store without a budget charges nothing
		}
	}
	return st
}

// interleave stages raw runs the way one map task emitting into
// len(runs) partitions would: the runs' records taken round-robin, each
// run's own order kept, and per run the selection that finds its records
// in the stage again.
func interleave(runs [][]KeyValue) (stage []KeyValue, sels [][]int32) {
	sels = make([][]int32, len(runs))
	for i, more := 0, true; more; i++ {
		more = false
		for m, run := range runs {
			if i < len(run) {
				sels[m] = append(sels[m], int32(len(stage)))
				stage = append(stage, run[i])
				more = true
			}
		}
	}
	return stage, sels
}

// sameRecords reports the first position at which got and want differ,
// or -1: keys and values by bytes, and values by identity too — the
// shuffle moves records, it never copies a value. (Every value the
// tests below build is non-empty.)
func sameRecords(got, want []KeyValue) int {
	for i := range want {
		if i >= len(got) || got[i].Key != want[i].Key ||
			!bytes.Equal(got[i].Value, want[i].Value) || &got[i].Value[0] != &want[i].Value[0] {
			return i
		}
	}
	if len(got) > len(want) {
		return len(want)
	}
	return -1
}

func TestMergeShuffleMatchesLegacySortProperty(t *testing.T) {
	f := func(seed int64, mapTasks, maxPerRun uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		runs := randomKVRuns(rng, int(mapTasks%8)+1, int(maxPerRun%50))
		return sameRecords(drainInput(t, sortedRunsInput(runs)), legacyShuffle(runs)) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// shuffleRunsFromBytes decodes arbitrary bytes into raw map runs whose
// keys hit what a normalized-key shuffle can get wrong: empty keys,
// NULs (zero padding makes "ab" and "ab\x00" tie on ord), keys that are
// prefixes of one another, shared prefixes that reach more than 8 bytes
// past the common one, duplicates within and across runs, empty runs.
// data[0] picks 1–8 runs; every following byte pair is one record: the
// first byte holds its run and one of four stems, the second a tail of
// up to 3 bytes drawn from {NUL, 'a', 'b', 0xff}.
func shuffleRunsFromBytes(data []byte) [][]KeyValue {
	if len(data) == 0 {
		return nil
	}
	stems := []string{"", "stem-", "stem-0123456789", "stem-0123456789\x00xy"}
	const alphabet = "\x00ab\xff"
	runs := make([][]KeyValue, int(data[0]%8)+1)
	for i := 1; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		m := int(a>>2) % len(runs)
		key := stems[a&3]
		for n := int(b >> 6); n > 0; n-- {
			key += alphabet[b&3 : b&3+1]
			b >>= 2
		}
		runs[m] = append(runs[m], KeyValue{Key: key, Value: []byte(fmt.Sprintf("m%d-i%d", m, len(runs[m])))})
	}
	return runs
}

// checkShuffleOrder asserts the two halves of the shuffle on raw map
// runs: (a) the map-side sort equals the standard library's stable
// sort — of a run on its own, and of the same run picked out of a stage
// it shares with the others, one sorter serving them all — (b) draining
// the streaming merge of the runs in memory equals legacyShuffle, and
// (c) so does draining it with some runs read from run files: with
// fleet set, every run from the middle one of three segments of its map
// task's file, the segments around it holding decoy records that a
// merge reading past [off, end) would yield; otherwise the runs whose
// bit m%8 is set in route from a partitionStore that has spilled them,
// the rest from its memory.
func checkShuffleOrder(t *testing.T, runs [][]KeyValue, route byte, fleet bool) {
	t.Helper()
	stage, sels := interleave(runs)
	var sorter runSorter
	for m, run := range runs {
		want := slices.Clone(run)
		slices.SortStableFunc(want, func(a, b KeyValue) int { return strings.Compare(a.Key, b.Key) })
		if i := sameRecords(sortRun(run), want); i >= 0 {
			t.Fatalf("run %d: sorted run departs from the stable-sort oracle at record %d (keys %q)", m, i, keysOf(want))
		}
		picked := make([]KeyValue, len(run))
		sorter.sortInto(picked, stage, sels[m])
		if i := sameRecords(picked, want); i >= 0 {
			t.Fatalf("run %d of %d, picked out of a shared stage: sorted run departs from the stable-sort oracle at record %d (keys %q)",
				m, len(runs), i, keysOf(want))
		}
	}
	in := sortedRunsInput(runs)
	want := legacyShuffle(runs)
	if in.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(want))
	}
	if i := sameRecords(drainInput(t, in), want); i >= 0 {
		t.Fatalf("streaming merge departs from legacyShuffle at record %d (keys %q)", i, keysOf(want))
	}
	if route == 0 && !fleet {
		return
	}
	sorted := make([][]KeyValue, len(runs))
	for m, run := range runs {
		sorted[m] = sortRun(run)
	}
	var files *partitionStore
	if fleet {
		files = writeMapRuns(t, sorted)
	} else {
		cfg, _ := storeConfig(t, 1<<30)
		st := newPartitionStore(cfg, 0)
		defer st.Close()
		for _, spill := range []bool{true, false} {
			for m, run := range sorted {
				if spilled := route>>(m%8)&1 == 1; spilled == spill {
					if err := st.addRun(m, slices.Clone(run)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if spill {
				if _, err := st.budgetSpill(); err != nil {
					t.Fatal(err)
				}
			}
		}
		files = st
	}
	got := drainInput(t, files)
	for i := range want {
		if i >= len(got) || got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("route %08b, fleet %v: merge with run files departs from legacyShuffle at record %d (keys %q)", route, fleet, i, keysOf(want))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("route %08b, fleet %v: merge with run files yields %d records, want %d", route, fleet, len(got), len(want))
	}
}

// writeMapRuns writes each sorted run as partition 1 of map task m's
// file in a fleet's job directory, between decoy runs for partitions 0
// and 2, and returns the reduce input a lease reads partition 1
// through.
func writeMapRuns(t *testing.T, sorted [][]KeyValue) *partitionStore {
	t.Helper()
	dir := t.TempDir()
	runs := make([]RunPart, len(sorted))
	for m, run := range sorted {
		decoy := []KeyValue{{Key: "decoy", Value: []byte("d")}, {Key: "\xff", Value: []byte{}}}
		parts, err := writeMapFile(dir, m, [][]KeyValue{decoy, run, decoy}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[m] = parts[1]
	}
	return mapFileInput("fleet-test", 1, dir, runs, nil)
}

func keysOf(kvs []KeyValue) []string {
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	return keys
}

// seedRec is one record of a hand-written shuffleRunsFromBytes input:
// its run, its stem, and its tail as indices into the tail alphabet
// (0 = NUL, 1 = 'a', 2 = 'b', 3 = 0xff), at most three.
type seedRec struct {
	run, stem int
	tail      []byte
}

// shuffleSeed encodes k runs (1–8) holding recs for shuffleRunsFromBytes.
func shuffleSeed(k int, recs ...seedRec) []byte {
	data := []byte{byte(k - 1)}
	for _, r := range recs {
		b := byte(len(r.tail)) << 6
		for i, c := range r.tail {
			b |= c << (2 * i)
		}
		data = append(data, byte(r.run<<2|r.stem), b)
	}
	return data
}

// shuffleOrderSeeds seed the fuzz corpus and run in the property test.
var shuffleOrderSeeds = [][]byte{
	{},
	shuffleSeed(1),
	// One run, every key empty.
	shuffleSeed(1, seedRec{}, seedRec{}, seedRec{}),
	// "", NUL, NUL NUL and NUL 'a' across runs: all tie on ord but the last.
	shuffleSeed(3, seedRec{0, 0, []byte{0, 0}}, seedRec{1, 0, []byte{0}}, seedRec{2, 0, nil},
		seedRec{0, 0, []byte{0, 1}}, seedRec{1, 0, []byte{0, 0}}, seedRec{2, 0, []byte{0}}),
	// Keys that are prefixes of one another, under a shared "stem-".
	shuffleSeed(2, seedRec{0, 1, []byte{1, 1}}, seedRec{1, 1, []byte{1}}, seedRec{0, 1, nil},
		seedRec{1, 2, nil}, seedRec{0, 1, []byte{1, 1, 2}}, seedRec{1, 1, []byte{2}}),
	// Keys that differ only 10+ bytes past the shared "stem-".
	shuffleSeed(4, seedRec{0, 2, []byte{2}}, seedRec{1, 3, []byte{1}}, seedRec{2, 2, []byte{1}},
		seedRec{3, 3, nil}, seedRec{0, 2, nil}, seedRec{1, 2, []byte{0}}, seedRec{2, 3, []byte{0, 3}}),
	// One key in every run, several times over.
	shuffleSeed(3, seedRec{0, 2, []byte{1}}, seedRec{1, 2, []byte{1}}, seedRec{2, 2, []byte{1}},
		seedRec{0, 2, []byte{1}}, seedRec{1, 2, []byte{1}}, seedRec{2, 2, []byte{1}}),
	// Seven empty runs and one record.
	shuffleSeed(8, seedRec{5, 1, []byte{3}}),
}

// shuffleRoutes are the ways the seeds' runs reach the merge: all in
// memory, all from spilled files, alternate runs from each, and all
// from fleet map run files.
var shuffleRoutes = []struct {
	route byte
	fleet bool
}{{0, false}, {0xff, false}, {0x55, false}, {0, true}}

func TestShuffleOrderProperty(t *testing.T) {
	for _, seed := range shuffleOrderSeeds {
		for _, r := range shuffleRoutes {
			checkShuffleOrder(t, shuffleRunsFromBytes(seed), r.route, r.fleet)
		}
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		checkShuffleOrder(t, shuffleRunsFromBytes(data), byte(rng.Intn(256)), i%4 == 3)
	}
}

// FuzzShuffleOrder runs checkShuffleOrder on arbitrary byte keys. Every
// shuffle record is ordered by a normalized-key prefix, the key bytes
// consulted only on ties, so both halves are held to a stable sort of
// the concatenated runs, whichever route — memory, spill file segments,
// fleet map file segments — the runs take to the merge.
func FuzzShuffleOrder(f *testing.F) {
	for _, seed := range shuffleOrderSeeds {
		for _, r := range shuffleRoutes {
			f.Add(seed, r.route, r.fleet)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, route byte, fleet bool) {
		checkShuffleOrder(t, shuffleRunsFromBytes(data), route, fleet)
	})
}

// TestMemInputConcurrentIter: Iter may run several times at once; every
// pass must see the same records.
func TestMemInputConcurrentIter(t *testing.T) {
	runs := randomKVRuns(rand.New(rand.NewSource(5)), 6, 400)
	in := sortedRunsInput(runs)
	want := legacyShuffle(runs)
	const passes = 4
	got := make([][]KeyValue, passes)
	done := make(chan int, passes) // one send per pass
	for p := 0; p < passes; p++ {
		go func(p int) {
			it, _ := in.Iter()
			for {
				kv, ok, _ := it.Next()
				if !ok {
					break
				}
				got[p] = append(got[p], kv)
			}
			done <- p
		}(p)
	}
	for p := 0; p < passes; p++ {
		<-done
	}
	for p := range got {
		if i := sameRecords(got[p], want); i >= 0 {
			t.Errorf("pass %d departs from legacyShuffle at record %d", p, i)
		}
	}
}

func TestShuffleEquivalenceAcrossWorkersProperty(t *testing.T) {
	// Property: Workers=1 and Workers=GOMAXPROCS (and a spilling run)
	// produce byte-identical Results — output bytes, order, timestamps,
	// counters — for randomized inputs and job shapes.
	f := func(seed int64, nLines, mapTasks, reduceTasks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		words := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"}
		var in []KeyValue
		for i := 0; i < int(nLines%30)+1; i++ {
			line := ""
			for j := 0; j < rng.Intn(10); j++ {
				line += words[rng.Intn(len(words))] + " "
			}
			in = append(in, KeyValue{Key: fmt.Sprint(i), Value: []byte(line)})
		}
		base := Config{
			Name:           "shuffle-prop",
			NewMapper:      func() Mapper { return wordCountMapper{} },
			NewReducer:     func() Reducer { return orderReducer{} },
			NumMapTasks:    int(mapTasks%5) + 1,
			NumReduceTasks: int(reduceTasks%4) + 1,
			Cluster:        Cluster{Machines: 2, SlotsPerMachine: 2},
		}

		serial := base
		serial.Workers = 1
		parallel := base
		parallel.Workers = runtime.GOMAXPROCS(0) + 3 // force the pool path
		spilling := base
		spilling.Workers = 4
		spillEverything(&spilling)
		spilling.SpillDir = t.TempDir()

		a, err := Run(serial, in, 0)
		if err != nil {
			return false
		}
		b, err := Run(parallel, in, 0)
		if err != nil {
			return false
		}
		c, err := Run(spilling, in, 0)
		if err != nil {
			return false
		}
		// A map task feeding two partitions guarantees a forced spill under
		// any interleaving: its second run's charge finds its own first run
		// settled, and spillable.
		for _, split := range splitInput(in, spilling.NumMapTasks) {
			parts := map[int]bool{}
			for _, rec := range split {
				for _, w := range strings.Fields(string(rec.Value)) {
					parts[HashPartitioner(w, spilling.NumReduceTasks)] = true
				}
			}
			if len(parts) > 1 && spilling.Metrics.Counter(CounterBudgetForcedSpills).Value() == 0 {
				t.Logf("seed %d: the memory budget forced no spill", seed)
				return false
			}
		}
		return reflect.DeepEqual(a.Output, b.Output) &&
			reflect.DeepEqual(a.Output, c.Output) &&
			a.End == b.End && a.End == c.End &&
			a.MapEnd == b.MapEnd && a.MapEnd == c.MapEnd &&
			reflect.DeepEqual(a.Counters, b.Counters) &&
			reflect.DeepEqual(a.Counters, c.Counters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortedRunsSharesSingleRun(t *testing.T) {
	run := []KeyValue{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}
	in := memRuns([][]KeyValue{nil, run, nil})
	if len(in.runs) != 1 || &in.runs[0].kvs[0] != &run[0] {
		t.Error("a single-contributor partition should alias the run itself, not a copy")
	}
	if i := sameRecords(drainInput(t, in), run); i >= 0 {
		t.Errorf("single-run input departs from the run at record %d", i)
	}
	if got := drainInput(t, memRuns(nil)); got != nil {
		t.Errorf("empty input yielded %d records", len(got))
	}
}

// shapeMapper emits what its input record's value spells out — "n×p"
// clauses separated by spaces: n records into partition p, the keys of
// a clause descending so that the sort has work to do — or, for p = "*",
// n records into every partition.
type shapeMapper struct{ MapperBase }

func (shapeMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	for _, kv := range shapeRecords(rec, ctx.NumReduce) {
		emit.Emit(kv.Key, kv.Value)
	}
	return nil
}

func shapeRecords(rec KeyValue, numReduce int) []KeyValue {
	var out []KeyValue
	for _, clause := range strings.Fields(string(rec.Value)) {
		count, part, _ := strings.Cut(clause, "×")
		n, _ := strconv.Atoi(count)
		for i := n; i > 0; i-- {
			for p := 0; p < numReduce; p++ {
				if part == "*" || part == strconv.Itoa(p) {
					out = append(out, KeyValue{
						Key:   fmt.Sprintf("%d|%04d", p, i%997),
						Value: []byte(fmt.Sprintf("%s-%s-%d", rec.Key, clause, i)),
					})
				}
			}
		}
	}
	return out
}

// shapePartitioner routes a shapeMapper key to the partition it names.
func shapePartitioner(key string, _ int) int {
	p, _ := strconv.Atoi(key[:strings.IndexByte(key, '|')])
	return p
}

// echoReducer emits every record it is given, in the order given.
type echoReducer struct{ ReducerBase }

func (echoReducer) Reduce(_ *TaskContext, key string, values [][]byte, emit Emitter) error {
	for _, v := range values {
		emit.Emit(key, v)
	}
	return nil
}

// TestStageReuseAcrossTaskShapes: map tasks of very different shapes —
// 50 000 records into one partition, then a handful into every one, and
// the reverse — take their stage and sorter scratch from the same pool,
// as do the reduce tasks their group scratch; whatever an earlier task
// left there, the job's output is the stable sort of the concatenated
// map outputs, partition by partition.
func TestStageReuseAcrossTaskShapes(t *testing.T) {
	const numReduce = 5
	shapes := []string{"50000×2", "3×*", "2×* 1×4", "7×0 1×*"}
	for _, order := range []string{"big first", "big last"} {
		var in []KeyValue
		for i := range shapes {
			shape := shapes[i]
			if order == "big last" {
				shape = shapes[len(shapes)-1-i]
			}
			in = append(in, KeyValue{Key: fmt.Sprintf("m%d", i), Value: []byte(shape)})
		}
		var want []KeyValue
		for p := 0; p < numReduce; p++ {
			var part []KeyValue
			for _, rec := range in {
				for _, kv := range shapeRecords(rec, numReduce) {
					if shapePartitioner(kv.Key, numReduce) == p {
						part = append(part, kv)
					}
				}
			}
			sort.SliceStable(part, func(a, b int) bool { return part[a].Key < part[b].Key })
			want = append(want, part...)
		}
		for _, workers := range []int{1, 3} {
			cfg := Config{
				Name:           "stage-reuse",
				NewMapper:      func() Mapper { return shapeMapper{} },
				NewReducer:     func() Reducer { return echoReducer{} },
				Partition:      shapePartitioner,
				NumMapTasks:    len(in), // one input record, one shape, per map task
				NumReduceTasks: numReduce,
				Cluster:        Cluster{Machines: 2, SlotsPerMachine: 2},
				Workers:        workers,
			}
			for round := 0; round < 2; round++ {
				res, err := Run(cfg, in, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Output) != len(want) {
					t.Fatalf("%s, %d workers, round %d: %d output records, want %d", order, workers, round, len(res.Output), len(want))
				}
				for i, kv := range res.Output {
					if kv.Key != want[i].Key || !bytes.Equal(kv.Value, want[i].Value) {
						t.Fatalf("%s, %d workers, round %d: output record %d = (%q, %q), want (%q, %q)",
							order, workers, round, i, kv.Key, kv.Value, want[i].Key, want[i].Value)
					}
				}
			}
		}
	}
}

// TestMapOutputRunsAreExact: every run a map task returns is an
// allocation of its own at exactly its length — what lets a spill store
// free one run by dropping it (its ledger charges len, not cap).
func TestMapOutputRunsAreExact(t *testing.T) {
	split := []KeyValue{{Key: "a", Value: []byte("40×0 3×2 1×3 5×4")}, {Key: "b", Value: []byte("2×0 9×1 2×4")}}
	cfg := &Config{
		Name:           "exact-runs",
		NewMapper:      func() Mapper { return shapeMapper{} },
		Partition:      shapePartitioner,
		NumReduceTasks: 6, // partition 5 stays empty
	}
	for round := 0; round < 2; round++ { // the second task runs on the first one's stage
		res, err := runMapTask(cfg, 0, split)
		if err != nil {
			t.Fatal(err)
		}
		out := res.runs
		type span struct{ lo, hi uintptr }
		var spans []span
		size := reflect.TypeOf(KeyValue{}).Size()
		for p, run := range out {
			if (len(run) == 0) != (p == 5) {
				t.Errorf("partition %d has %d records", p, len(run))
			}
			if cap(run) != len(run) {
				t.Errorf("partition %d: cap %d, len %d", p, cap(run), len(run))
			}
			if len(run) == 0 {
				continue
			}
			lo := reflect.ValueOf(run).Pointer()
			spans = append(spans, span{lo, lo + uintptr(cap(run))*size})
		}
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if a.lo < b.hi && b.lo < a.hi {
					t.Error("two runs of one task share a backing array")
				}
			}
		}
	}
}
