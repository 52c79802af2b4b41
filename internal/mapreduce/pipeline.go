package mapreduce

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file runs a job's two phases. Reduce task r depends on every map
// task — a partition is complete only once every map has committed its
// run for it — so a job is the map tasks, a barrier, then the reduce
// tasks, each of which opens its own input: it merges the partition's
// runs as it reads them, as a Hadoop reduce task copies and merges its
// own partition. The body policy (taskBodies) decides who runs a task:
// this process, or a worker leased by the remote master.
//
//	map tasks  ──▶  reduce tasks
//
// Each task runs once; the only re-execution is a lost lease's
// re-dispatch (retryLost). Determinism is preserved because nothing
// about real execution order is observable: every task writes only its
// own task-indexed slots of phaseOutputs, and the simulated schedule,
// Result, spans, metrics, and quality exports are all derived
// afterwards from those outputs.

// phaseTask is one schedulable unit of engine work; task names it in
// error messages.
type phaseTask struct {
	task int
	run  func() error
}

// runTasks runs tasks in slice order on at most workers goroutines.
// After the first failure no further task starts (running ones finish),
// and every failure is reported, joined in slice order, so a
// multi-task failure is attributable task by task rather than
// collapsing to whichever error won the race. A panicking task becomes
// a task failure rather than a dead engine — the moral equivalent of a
// Hadoop task attempt dying without taking the job tracker down.
//
// Each task runs on a goroutine of its own: task goroutines start with
// zero GC assist debt, instead of long-lived workers accumulating the
// whole job's debt and stalling on assists.
func runTasks(workers int, tasks []phaseTask) error {
	slots := make(chan struct{}, max(1, min(workers, len(tasks))))
	errs := make([]error, len(tasks))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, t := range tasks {
		slots <- struct{}{}
		// A failing task records its failure before it frees its slot,
		// so the task waiting for that slot sees it.
		if failed.Load() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = runTaskSafe(t); errs[i] != nil {
				failed.Store(true)
			}
			<-slots
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runTaskSafe(t phaseTask) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mapreduce: task %d panicked: %v", t.task, p)
		}
	}()
	return t.run()
}

// runJobGraph runs cfg's map tasks, then its reduce tasks, with the
// bodies b, filling po. po holds the partition stores even when this
// returns an error; Run settles them.
func runJobGraph(cfg *Config, workers int, po *phaseOutputs, b taskBodies) error {
	M, R := cfg.NumMapTasks, cfg.NumReduceTasks
	maps := make([]phaseTask, M)
	for m := range maps {
		maps[m] = phaseTask{m, func() error {
			res, err := b.mapTask(m)
			if err != nil {
				return err
			}
			// Hand the runs to the partition stores and drop the task's own
			// references: from here on, residency of this map task's
			// records is the stores' call — under a budget, each run's
			// values too, once addRun has made them its own. A leased map
			// task has no runs here; its Parts locate them.
			for r, run := range res.runs {
				if err := po.stores[r].addRun(m, run); err != nil {
					return err
				}
			}
			res.runs = nil
			po.mapRes[m] = res
			return nil
		}}
	}
	if err := runTasks(workers, maps); err != nil {
		return err
	}

	reduces := make([]phaseTask, R)
	for i := range reduces {
		reduces[i] = phaseTask{i, func() error {
			res, err := b.reduce(i)
			if err != nil {
				return err
			}
			po.reduceRes[i] = res
			return nil
		}}
	}
	return runTasks(workers, reduces)
}
