package mapreduce

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/obs/live"
)

// runFleetMaps executes every map task of cfg over input as a fleet's
// leases do, writing the map files into a fresh shared job directory
// (which the master's BeginJob makes), and returns the runner and each
// partition's runs as a reduce lease carries them.
func runFleetMaps(t *testing.T, cfg *Config, input []KeyValue) (*RemoteRunner, [][]RunPart) {
	t.Helper()
	cfg.Partition, cfg.Cost = HashPartitioner, costmodel.Default() // Run's defaults
	splits := splitInput(input, cfg.NumMapTasks)
	rr := newRemoteRunner(cfg, splits, nil)
	rr.Configure(t.TempDir(), 1, 1)
	if err := os.Mkdir(rr.jobDir, 0o777); err != nil {
		t.Fatal(err)
	}
	runs := make([][]RunPart, cfg.NumReduceTasks)
	for r := range runs {
		runs[r] = make([]RunPart, len(splits))
	}
	for m := range splits {
		res, err := rr.RunTask(RemoteTask{Phase: live.PhaseMap, Task: m})
		if err != nil {
			t.Fatal(err)
		}
		for r, p := range res.Parts {
			runs[r][m] = p
		}
	}
	return rr, runs
}

// localReduceOutput is what a local run's reduce task r emitted, as a
// reduce lease returns it.
func localReduceOutput(res *Result, r int) []TimedKV {
	var want []TimedKV
	for _, kv := range res.Output {
		if kv.Task == r {
			kv.Global = 0
			want = append(want, kv)
		}
	}
	return want
}

// TestRemoteReduceChecksItsInputCount: a reduce lease merges its
// partition's segments of the map files itself and must reach the Σ N
// of the runs it was leased. An intact partition reduces to exactly the
// records a local run's reduce task emits; a lease whose part claims
// one record more than its segment holds fails, naming the job, the
// partition and both counts.
func TestRemoteReduceChecksItsInputCount(t *testing.T) {
	cfg := wordCountConfig(1)
	local, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rr, runs := runFleetMaps(t, &cfg, wordCountInput())
	for r := range runs {
		res, err := rr.RunTask(RemoteTask{Phase: live.PhaseReduce, Task: r, Runs: runs[r]})
		if err != nil {
			t.Fatalf("intact reduce %d: %v", r, err)
		}
		if want := localReduceOutput(local, r); !reflect.DeepEqual(res.Out, want) {
			t.Errorf("reduce %d: lease emitted %v, local run %v", r, res.Out, want)
		}
	}

	// Claim one record more for map 0's run of the first partition it feeds.
	r := 0
	for runs[r][0].N == 0 {
		r++
	}
	n := 0
	for _, p := range runs[r] {
		n += p.N
	}
	runs[r][0].N++
	_, err = rr.RunTask(RemoteTask{Phase: live.PhaseReduce, Task: r, Runs: runs[r]})
	want := fmt.Sprintf("wordcount shuffle for reduce %d: merged %d records, map tasks produced %d", r, n, n+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("overclaimed reduce %d: err = %v, want it to contain %q", r, err, want)
	}
}

// TestLeaseOutsideTheJobIsAnError: a lease whose task index lies
// outside the job this process derived — a map index past its splits,
// a reduce index past its partitions — fails with an error naming both,
// before any task body runs.
func TestLeaseOutsideTheJobIsAnError(t *testing.T) {
	cfg := wordCountConfig(1)
	rr, runs := runFleetMaps(t, &cfg, wordCountInput())
	for _, c := range []struct {
		task RemoteTask
		want string
	}{
		{RemoteTask{Phase: live.PhaseMap, Task: cfg.NumMapTasks}, fmt.Sprintf("map task %d outside %d splits", cfg.NumMapTasks, cfg.NumMapTasks)},
		{RemoteTask{Phase: live.PhaseMap, Task: -1}, fmt.Sprintf("map task -1 outside %d splits", cfg.NumMapTasks)},
		{RemoteTask{Phase: live.PhaseReduce, Task: cfg.NumReduceTasks, Runs: runs[0]}, fmt.Sprintf("reduce task %d outside %d partitions", cfg.NumReduceTasks, cfg.NumReduceTasks)},
		{RemoteTask{Phase: live.PhaseReduce, Task: -1, Runs: runs[0]}, fmt.Sprintf("reduce task -1 outside %d partitions", cfg.NumReduceTasks)},
	} {
		res, err := rr.RunTask(c.task)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s lease %d: result %v, err = %v; want an error containing %q", c.task.Phase, c.task.Task, res, err, c.want)
		}
	}
}

// TestCorruptSegmentFailsItsPartitionOnly: one flipped byte inside map
// m's segment for partition r fails reduce r with the frame's CRC
// error, naming the job, the partition and map task m, while every
// other partition of that same file still reduces to the local run's
// output. A flipped byte in a spilled run's segment of a store's spill
// file names the map task whose run it is the same way.
func TestCorruptSegmentFailsItsPartitionOnly(t *testing.T) {
	cfg := wordCountConfig(1)
	cfg.NumReduceTasks = 4
	local, err := Run(cfg, wordCountInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rr, runs := runFleetMaps(t, &cfg, wordCountInput())
	// The map whose file feeds the most partitions; the first it feeds.
	m, fed := 0, 0
	for mm := range runs[0] {
		k := 0
		for r := range runs {
			if runs[r][mm].N > 0 {
				k++
			}
		}
		if k > fed {
			m, fed = mm, k
		}
	}
	if fed < 2 {
		t.Fatalf("no map file holds two non-empty segments")
	}
	bad := 0
	for runs[bad][m].N == 0 {
		bad++
	}
	// The segment's first payload byte follows its frame's 8-byte header.
	flipByte(t, filepath.Join(rr.jobDir, mapFileName(m)), runs[bad][m].Off+8)

	for r := range runs {
		res, err := rr.RunTask(RemoteTask{Phase: live.PhaseReduce, Task: r, Runs: runs[r]})
		if r == bad {
			want := fmt.Sprintf("wordcount shuffle for reduce %d: map task %d's run: extsort: frame CRC mismatch", r, m)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("reduce %d over the flipped byte: err = %v, want it to contain %q", r, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("reduce %d: %v", r, err)
		}
		if want := localReduceOutput(local, r); !reflect.DeepEqual(res.Out, want) {
			t.Errorf("reduce %d: lease emitted %v, local run %v", r, res.Out, want)
		}
	}

	// Under a 64-byte budget each run's charge spills the runs before it,
	// so runs 0 and 1 lie in the store's spill file; flip a byte of run 1's.
	scfg, _ := storeConfig(t, 64)
	st := newPartitionStore(scfg, 2)
	defer st.Close()
	for m, run := range storeRuns(3, 10) {
		if err := st.addRun(m, run); err != nil {
			t.Fatal(err)
		}
	}
	spilled := st.runs[1]
	if spilled.m != 1 || spilled.path == "" {
		t.Fatalf("run %d at %q: map task 1's run was not spilled", spilled.m, spilled.path)
	}
	flipByte(t, spilled.path, spilled.Off+8)
	it, err := st.Iter()
	if err == nil {
		for ok := true; ok && err == nil; {
			_, ok, err = it.Next()
		}
		it.Close()
	}
	want := "store-test shuffle for reduce 2: map task 1's run: extsort: frame CRC mismatch"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("merge over the flipped spill byte: err = %v, want it to contain %q", err, want)
	}
}

// flipByte flips one bit of the byte at offset at of the file at path.
func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMapTasksWriteOneFileEach: a job's map phase leaves exactly one
// file per map task in its shared directory, not one per map task and
// partition, and a second execution of a map task reports the same
// parts and replaces its file, leaving no temp file behind.
func TestMapTasksWriteOneFileEach(t *testing.T) {
	cfg := wordCountConfig(1)
	rr, runs := runFleetMaps(t, &cfg, wordCountInput())
	files := func() []string {
		t.Helper()
		entries, err := os.ReadDir(rr.jobDir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		return names
	}
	want := []string{"m0.run", "m1.run", "m2.run"}
	if got := files(); !reflect.DeepEqual(got, want) {
		t.Fatalf("job dir after the map phase holds %q, want %q", got, want)
	}
	for m := range want {
		res, err := rr.RunTask(RemoteTask{Phase: live.PhaseMap, Task: m})
		if err != nil {
			t.Fatal(err)
		}
		for r, p := range res.Parts {
			if p != runs[r][m] {
				t.Errorf("map %d partition %d: second execution reports %+v, first %+v", m, r, p, runs[r][m])
			}
		}
	}
	if got := files(); !reflect.DeepEqual(got, want) {
		t.Errorf("job dir after every map ran twice holds %q, want %q", got, want)
	}
}

// TestRunFileRecordsNameTheirMapTask: every record of a run carries its
// map task's index as its seq, and one that names another map task
// fails the pass, naming the job and the partition — whether it heads
// its segment, read as the merge opens, or follows.
func TestRunFileRecordsNameTheirMapTask(t *testing.T) {
	run := []KeyValue{{Key: "ba", Value: []byte("0")}, {Key: "bc", Value: []byte("1")}}
	decoy := []KeyValue{{Key: "decoy", Value: []byte("d")}}
	for bad := range run {
		dir := t.TempDir()
		own, err := writeMapFile(dir, 0, [][]KeyValue{decoy, nil, {{Key: "a", Value: []byte("0")}, {Key: "c", Value: []byte("1")}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Map 1's segment for partition 2 is two run streams back to
		// back, one record each: one stream, whose record bad names map 0.
		part := RunPart{N: len(run), Lo: run[0].Key, Hi: run[len(run)-1].Key}
		err = commitRunFile(dir, mapFileName(1), nil, func(rf *runFile) error {
			if _, err := rf.appendRun(1, decoy); err != nil {
				return err
			}
			part.Off = rf.off
			for i := range run {
				m := 1
				if i == bad {
					m = 0
				}
				if _, err := rf.appendRun(m, run[i:i+1]); err != nil {
					return err
				}
			}
			part.End = rf.off
			_, err := rf.appendRun(1, decoy)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		it, err := mapFileInput("seqcheck", 2, dir, []RunPart{own[2], part}, nil).Iter()
		if err == nil {
			for ok := true; ok && err == nil; {
				_, ok, err = it.Next()
			}
			it.Close()
		}
		want := "seqcheck shuffle for reduce 2: the run file of map task 1 holds a record of map task 0"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("record %d of map 1's segment names map 0: err = %v, want it to contain %q", bad, err, want)
		}
	}
}

// broadcastJob is a worker's RemoteJob whose master broadcast jr.
type broadcastJob struct{ jr *RemoteJobResults }

func (broadcastJob) Master() bool                            { return false }
func (broadcastJob) RunTask(RemoteTask) (*TaskResult, error) { return nil, nil }
func (broadcastJob) Finish(*RemoteJobResults, error) error   { return nil }
func (j broadcastJob) Wait() (*RemoteJobResults, error)      { return j.jr, nil }

// TestWorkerDerivesReduceInputFromParts: a worker sizes each
// partition's reduce input from the broadcast's map Parts
// (partitionLen), and a map result with another partition count than
// this process derived is a diverged fleet, not an index out of range.
func TestWorkerDerivesReduceInputFromParts(t *testing.T) {
	cfg := wordCountConfig(1)
	splits := splitInput(wordCountInput(), cfg.NumMapTasks)
	jr := &RemoteJobResults{Map: make([]TaskResult, cfg.NumMapTasks), Reduce: make([]TaskResult, cfg.NumReduceTasks)}
	for m := range jr.Map {
		jr.Map[m].Parts = []RunPart{{N: m}, {N: 10 * m}}
	}
	po, err := runRemoteWorker(&cfg, splits, broadcastJob{jr}, newRemoteRunner(&cfg, splits, nil))
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range []int{0 + 1 + 2, 0 + 10 + 20} {
		if got := partitionLen(po.mapRes, r); got != want {
			t.Errorf("partition %d: input of %d records, want Σ N = %d", r, got, want)
		}
	}

	jr.Map[1].Parts = jr.Map[1].Parts[:1]
	_, err = runRemoteWorker(&cfg, splits, broadcastJob{jr}, newRemoteRunner(&cfg, splits, nil))
	if err == nil || !strings.Contains(err.Error(), "map task 1 with 1 partitions, this process expects 2") {
		t.Errorf("err = %v, want the diverged broadcast named", err)
	}
}
