package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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

func TestMergeShuffleMatchesLegacySortProperty(t *testing.T) {
	f := func(seed int64, mapTasks, maxPerRun uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		runs := randomKVRuns(rng, int(mapTasks%8)+1, int(maxPerRun%50))
		want := legacyShuffle(runs)

		// New path: stably pre-sort each run (as map tasks now do),
		// then k-way merge with map-task tie-breaking.
		sorted := make([][]KeyValue, 0, len(runs))
		total := 0
		for _, run := range runs {
			cp := append([]KeyValue(nil), run...)
			sortByKeyStable(cp)
			if len(cp) > 0 {
				sorted = append(sorted, cp)
				total += len(cp)
			}
		}
		got := mergeSortedRuns(sorted, total)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
		spilling.ShuffleMemLimit = 2 // force the external merge path
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
	run := []KeyValue{{Key: "a"}, {Key: "b"}}
	got := mergeSortedRuns([][]KeyValue{run}, 2)
	if &got[0] != &run[0] {
		t.Error("single-run merge should return the run itself, not a copy")
	}
	if mergeSortedRuns(nil, 0) != nil {
		t.Error("empty merge should be nil")
	}
}
