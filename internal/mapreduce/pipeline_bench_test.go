package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The engine benchmark reproduces the workload shape pipelined edges
// target: a straggling map task plus a skewed shuffle, where barrier
// edges serialize map-straggler wait → all merges → all reduces, while
// pipelined edges premerge the seven fast map tasks' runs during the
// straggler and fire each reduce the moment its partition's merge
// commits.

const (
	benchMapTasks    = 8
	benchReduceTasks = 4
	// benchEmitPerMap records per fast map task; ~80% of them key into
	// partition 0, making its merge the shuffle-side straggler. Kept
	// small so the workload is compute- rather than allocation-bound:
	// the edge policies' structural difference (barriers vs overlap) is the
	// signal, not GC pressure from shuffle volume.
	benchEmitPerMap = 2000
	// benchStragglerSpin is map task 0's CPU burn, sized so the other
	// seven maps' shuffle premerge roughly hides behind it.
	benchStragglerSpin = 6_000_000
)

// benchSink defeats dead-code elimination of the spin loops.
var benchSink uint64

func spinWork(n int) {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += uint64(i) * 2654435761
	}
	benchSink += acc
}

// pipelineBenchPartitioner reads the partition straight off the key's
// "r|" prefix, so the benchmark controls the skew exactly.
func pipelineBenchPartitioner(key string, numReduce int) int {
	r, err := strconv.Atoi(key[:strings.IndexByte(key, '|')])
	if err != nil || r < 0 || r >= numReduce {
		return 0
	}
	return r
}

// benchKeys is a prebuilt key table shared by every emission, so the
// benchmark's shuffle traffic costs no per-emit allocation — the
// engines' own allocation behaviour is what gets measured.
var benchKeys = func() [][]string {
	keys := make([][]string, benchReduceTasks)
	for r := range keys {
		keys[r] = make([]string, 4096)
		for i := range keys[r] {
			keys[r][i] = fmt.Sprintf("%d|%06d", r, i)
		}
	}
	return keys
}()

var benchPayload = []byte("v")

// pipelineBenchMapper burns the CPU budget in its record's value, then
// emits that record's share of shuffle traffic with 4-in-5 keys
// landing in partition 0.
type pipelineBenchMapper struct{ MapperBase }

func (pipelineBenchMapper) Map(ctx *TaskContext, rec KeyValue, emit Emitter) error {
	fields := strings.Fields(string(rec.Value))
	spin, _ := strconv.Atoi(fields[0])
	emits, _ := strconv.Atoi(fields[1])
	spinWork(spin)
	task, _ := strconv.Atoi(rec.Key)
	for i := 0; i < emits; i++ {
		r := 0
		if i%5 == 0 {
			r = 1 + (task+i)%(benchReduceTasks-1)
		}
		emit.Emit(benchKeys[r][(task*7919+i*13)%4096], benchPayload)
	}
	return nil
}

// pipelineBenchReducer makes partitions 1..3 CPU-heavy: their reduce
// work is exactly what barrier edges cannot start until partition 0's
// big merge has finished, and what pipelined edges overlap with it.
type pipelineBenchReducer struct{ ReducerBase }

func (pipelineBenchReducer) Reduce(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
	spin := 20
	if key[0] != '0' {
		spin = 5000
	}
	spinWork(spin * len(values))
	emit.Emit(key, []byte(strconv.Itoa(len(values))))
	return nil
}

func pipelineBenchInput() []KeyValue {
	in := make([]KeyValue, benchMapTasks)
	for i := range in {
		spec := fmt.Sprintf("0 %d", benchEmitPerMap)
		if i == 0 {
			// The straggler: all CPU, almost no shuffle traffic.
			spec = fmt.Sprintf("%d 100", benchStragglerSpin)
		}
		in[i] = KeyValue{Key: strconv.Itoa(i), Value: []byte(spec)}
	}
	return in
}

func pipelineBenchConfig(workers int, mode ExecutionMode) Config {
	return Config{
		Name:           "engine-bench",
		NewMapper:      func() Mapper { return pipelineBenchMapper{} },
		NewReducer:     func() Reducer { return pipelineBenchReducer{} },
		Partition:      pipelineBenchPartitioner,
		NumMapTasks:    benchMapTasks,
		NumReduceTasks: benchReduceTasks,
		Cluster:        Cluster{Machines: 4, SlotsPerMachine: 2},
		Workers:        workers,
		Execution:      mode,
	}
}

// BenchmarkEnginePipeline compares host wall time of the job graph's
// barrier edge policy against its pipelined edge policy on the skewed
// workload above. Sub-benchmark names split on the policy so
// `make bench-compare` can diff barrier vs pipelined per worker count.
func BenchmarkEnginePipeline(b *testing.B) {
	in := pipelineBenchInput()
	engines := []struct {
		name string
		mode ExecutionMode
	}{
		{"barrier", ExecBarrier},
		{"pipelined", ExecPipelined},
	}
	for _, eng := range engines {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", eng.name, workers), func(b *testing.B) {
				cfg := pipelineBenchConfig(workers, eng.mode)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg, in, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
