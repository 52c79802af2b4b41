package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"proger/internal/membudget"
)

// benchRuns builds one reduce partition's worth of raw map output:
// mapTasks runs of perRun records each, in emission (unsorted) order.
// The "job2" shape is what the progressive-resolution job shuffles:
// 18-digit sequence keys of which a partition shares the first 14, a
// few dozen blocks per partition so duplicates are heavy, and every
// record of a block carrying the very same string. The "job1" shape is
// the blocking job's: short "family|mainkey" keys of varying length,
// each a string of its own.
func benchRuns(shape string, mapTasks, perRun int) [][]KeyValue {
	rng := rand.New(rand.NewSource(7))
	blockKeys := make([]string, 60)
	for i := range blockKeys {
		blockKeys[i] = fmt.Sprintf("%014d%04d", 31415926535897, rng.Intn(10000))
	}
	runs := make([][]KeyValue, mapTasks)
	for m := range runs {
		run := make([]KeyValue, perRun)
		for i := range run {
			key := blockKeys[rng.Intn(len(blockKeys))]
			if shape == "job1" {
				key = fmt.Sprintf("%d|%c%03d", rng.Intn(3), 'A'+rng.Intn(26), rng.Intn(700))
			}
			run[i] = KeyValue{Key: key, Value: []byte("payload-payload-payload")}
		}
		runs[m] = run
	}
	return runs
}

// BenchmarkShuffle times the two halves of the shuffle on one
// partition, 16 map tasks × 2000 records: sort is the map side (every
// run through sortInto, into a run allocated at its length), merge the
// reduce side (one drain of the streaming merge over the sorted runs),
// and spilled the reduce side on the same runs read back from the run
// files of a spill store that has spilled every one of them.
func BenchmarkShuffle(b *testing.B) {
	const mapTasks, perRun = 16, 2000
	for _, shape := range []string{"job2", "job1"} {
		runs := benchRuns(shape, mapTasks, perRun)
		sel := make([]int32, perRun)
		for i := range sel {
			sel[i] = int32(i)
		}
		b.Run("sort/"+shape, func(b *testing.B) {
			b.ReportAllocs()
			var sorter runSorter // borrowed: its scratch outlives the task
			for i := 0; i < b.N; i++ {
				for _, run := range runs {
					benchRun = make([]KeyValue, perRun)
					sorter.sortInto(benchRun, run, sel)
				}
			}
		})
		in := sortedRunsInput(runs)
		b.Run("merge/"+shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, _ := in.Iter()
				for {
					kv, ok, _ := it.Next()
					if !ok {
						break
					}
					benchRun[0] = kv
				}
			}
		})
		b.Run("spilled/"+shape, func(b *testing.B) {
			cfg := &Config{Name: "bench", SpillDir: b.TempDir(), MemBudget: membudget.New(1 << 40)}
			st := newPartitionStore(cfg, 0)
			defer st.Close()
			for m, run := range in.runs {
				if err := st.addRun(m, slices.Clone(run.kvs)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.budgetSpill(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := st.Iter()
				if err != nil {
					b.Fatal(err)
				}
				for {
					kv, ok, err := it.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					benchRun[0] = kv
				}
				it.Close()
			}
		})
	}
}

// benchRun keeps the compiler from discarding the measured calls.
var benchRun = make([]KeyValue, 1)

// BenchmarkShuffleEngine runs a whole job dominated by shuffle volume,
// so the number tracks end-to-end engine throughput.
func BenchmarkShuffleEngine(b *testing.B) {
	var in []KeyValue
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		in = append(in, KeyValue{
			Key:   fmt.Sprint(i),
			Value: []byte(fmt.Sprintf("w%03d w%03d w%03d w%03d", rng.Intn(300), rng.Intn(300), rng.Intn(300), rng.Intn(300))),
		})
	}
	cfg := Config{
		Name:           "shuffle-engine-bench",
		NewMapper:      func() Mapper { return wordCountMapper{} },
		NewReducer:     func() Reducer { return wordCountReducer{} },
		NumMapTasks:    8,
		NumReduceTasks: 4,
		Cluster:        Cluster{Machines: 4, SlotsPerMachine: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, in, 0); err != nil {
			b.Fatal(err)
		}
	}
}
