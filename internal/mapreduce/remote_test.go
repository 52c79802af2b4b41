package mapreduce

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/extsort"
	"proger/internal/obs/live"
)

// TestRemoteReduceChecksItsInputCount: a reduce lease merges its
// partition's map run files itself and must reach the lease's input
// length, the Σ PartLens the map tasks reported. An intact partition
// reduces to exactly the records a local run's reduce task emits; with
// one record cut from one map run file the lease fails, naming the job,
// the partition and both counts.
func TestRemoteReduceChecksItsInputCount(t *testing.T) {
	cfg := wordCountConfig(1)
	local, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partition, cfg.Cost = HashPartitioner, costmodel.Default() // Run's defaults
	splits := splitInput(wordCountInput(), cfg.NumMapTasks)
	rr := newRemoteRunner(&cfg, splits, nil)
	rr.Configure(t.TempDir(), 1, 1, false, false)
	lens := make([]int, cfg.NumReduceTasks)
	for m := range splits {
		res, err := rr.RunTask(live.PhaseMap, m, len(splits[m]))
		if err != nil {
			t.Fatal(err)
		}
		for r, n := range res.PartLens {
			lens[r] += n
		}
	}

	for r := range lens {
		res, err := rr.RunTask(live.PhaseReduce, r, lens[r])
		if err != nil {
			t.Fatalf("intact reduce %d: %v", r, err)
		}
		var want []TimedKV
		for _, kv := range local.Output {
			if kv.Task == r {
				kv.Global = 0
				want = append(want, kv)
			}
		}
		if !reflect.DeepEqual(res.Out, want) {
			t.Errorf("reduce %d: lease emitted %v, local run %v", r, res.Out, want)
		}
	}

	// Cut the last record of map 0's run for the first partition it feeds.
	r := 0
	for cutRun(t, rr.jobDir(), mapRunName(0, r)) == 0 {
		r++
	}
	_, err = rr.RunTask(live.PhaseReduce, r, lens[r])
	want := fmt.Sprintf("wordcount shuffle for reduce %d: merged %d records, map tasks produced %d", r, lens[r]-1, lens[r])
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("short reduce %d: err = %v, want it to contain %q", r, err, want)
	}
}

// TestRunFileRecordsNameTheirMapTask: every record of a run file
// carries its map task's index as its seq, and one that names another
// map task fails the pass, naming the job and the partition — whether
// it heads its file, read as the merge opens, or follows.
func TestRunFileRecordsNameTheirMapTask(t *testing.T) {
	run := []KeyValue{{Key: "a", Value: []byte("0")}, {Key: "c", Value: []byte("1")}}
	for bad := range run {
		dir := t.TempDir()
		if err := commitRunFile(dir, mapRunName(0, 2), nil, runRecords(0, run)); err != nil {
			t.Fatal(err)
		}
		err := commitRunFile(dir, mapRunName(1, 2), nil, func(rw *extsort.RunWriter) error {
			for i, kv := range run {
				seq := uint64(1)
				if i == bad {
					seq = 0
				}
				if err := rw.WriteRecord(seq, "b"+kv.Key, kv.Value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		in := runsInput{job: "seqcheck", r: 2, n: 4, runs: []sortedRun{
			{m: 0, path: filepath.Join(dir, mapRunName(0, 2))}, {m: 1, path: filepath.Join(dir, mapRunName(1, 2))}}}
		it, err := in.Iter()
		if err == nil {
			for ok := true; ok && err == nil; {
				_, ok, err = it.Next()
			}
			it.Close()
		}
		want := "seqcheck shuffle for reduce 2: the run file of map task 1 holds a record of map task 0"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("record %d of map 1's file names map 0: err = %v, want it to contain %q", bad, err, want)
		}
	}
}

// cutRun rewrites the run file dir/name without its last record and
// returns how many records it held.
func cutRun(t *testing.T, dir, name string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []KeyValue
	var seq uint64
	rd := extsort.NewRunReader(f)
	for {
		s, key, val, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seq = s
		recs = append(recs, KeyValue{Key: key, Value: val})
	}
	if len(recs) == 0 {
		return 0
	}
	if err := commitRunFile(dir, name, nil, runRecords(int(seq), recs[:len(recs)-1])); err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

// broadcastJob is a worker's RemoteJob whose master broadcast jr.
type broadcastJob struct{ jr *RemoteJobResults }

func (broadcastJob) Master() bool                                            { return false }
func (broadcastJob) RunTask(live.Phase, int, int) (*RemoteTaskResult, error) { return nil, nil }
func (broadcastJob) Finish(*RemoteJobResults, error) error                   { return nil }
func (j broadcastJob) Wait() (*RemoteJobResults, error)                      { return j.jr, nil }

// TestWorkerDerivesReduceInputFromPartLens: a worker sizes each
// partition's reduce input from the broadcast's map PartLens
// (partitionLen), and a map result with another partition count than
// this process derived is a diverged fleet, not an index out of range.
func TestWorkerDerivesReduceInputFromPartLens(t *testing.T) {
	cfg := wordCountConfig(1)
	splits := splitInput(wordCountInput(), cfg.NumMapTasks)
	jr := &RemoteJobResults{Map: make([]RemoteTaskResult, cfg.NumMapTasks), Reduce: make([]RemoteTaskResult, cfg.NumReduceTasks)}
	for m := range jr.Map {
		jr.Map[m].PartLens = []int{m, 10 * m}
	}
	po, err := runRemoteWorker(&cfg, splits, broadcastJob{jr}, newRemoteRunner(&cfg, splits, nil))
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range []int{0 + 1 + 2, 0 + 10 + 20} {
		if got := partitionLen(po.mapRes, r); got != want {
			t.Errorf("partition %d: input of %d records, want Σ PartLens = %d", r, got, want)
		}
	}

	jr.Map[1].PartLens = jr.Map[1].PartLens[:1]
	_, err = runRemoteWorker(&cfg, splits, broadcastJob{jr}, newRemoteRunner(&cfg, splits, nil))
	if err == nil || !strings.Contains(err.Error(), "map task 1 with 1 partitions, this process expects 2") {
		t.Errorf("err = %v, want the diverged broadcast named", err)
	}
}
