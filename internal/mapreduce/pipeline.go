package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"proger/internal/costmodel"
	"proger/internal/obs/live"
)

// This file implements the job graph: every job becomes one static
// dependency DAG executed on one shared worker pool. A node is
// dispatched the moment its last dependency completes. Reduce task r
// depends on every map task — a partition is complete only once every
// map has committed its run for it — and opens its own input: it
// merges the partition's runs as it reads them, as a Hadoop reduce task
// copies and merges its own partition. The body policy (taskBodies)
// decides who runs a task: this process, or a worker leased by the
// remote master.
//
// The graph per job:
//
//	map m  ──┬─▶ reduce r (every r)
//	         └─▶ (speculation gate ──▶ per-task speculation checks)
//
// Determinism is preserved because nothing about real execution order
// is observable: every node writes only its own task-indexed slots of
// phaseOutputs, and the simulated schedule, Result, spans, metrics,
// and quality exports are all derived afterwards from those outputs.

// nodePhase ranks graph nodes for deterministic error reporting, in
// phase order.
type nodePhase int

const (
	nodeMap nodePhase = iota
	nodeReduce
	nodeSpecMap
	nodeSpecReduce
)

// nodeKey identifies a node's (phase, task) for error attribution.
type nodeKey struct {
	phase nodePhase
	task  int
}

// dagNode is one schedulable unit of engine work.
type dagNode struct {
	key nodeKey
	seq int // insertion order; error-ordering tie-break
	run func() error
	// waits counts unmet dependencies; mutated only under dagRun.mu.
	waits int
	succs []*dagNode
}

// taskGraph is a static dependency DAG. Build it single-threaded with
// node/edge, then call execute exactly once.
type taskGraph struct {
	nodes []*dagNode
}

func (g *taskGraph) node(key nodeKey, run func() error) *dagNode {
	n := &dagNode{key: key, seq: len(g.nodes), run: run}
	g.nodes = append(g.nodes, n)
	return n
}

func (g *taskGraph) edge(from, to *dagNode) {
	from.succs = append(from.succs, to)
	to.waits++
}

// dagRun is the mutable state of one graph execution. Ready nodes
// flow through the buffered `ready` channel (capacity = node count,
// so enqueues never block); bookkeeping is guarded by mu. Completion
// of a node happens-before dispatch of its successors, which is what
// makes single-writer task slots safe to read downstream without
// atomics.
type dagRun struct {
	ready    chan *dagNode
	done     chan struct{}
	mu       sync.Mutex
	undone   int // nodes not yet completed
	inflight int // nodes currently executing
	failed   bool
	failures []nodeFailure
}

type nodeFailure struct {
	key nodeKey
	seq int
	err error
}

// execute runs the graph on up to `workers` goroutines. After the
// first failure no further node is dispatched (in-flight nodes drain),
// and every collected failure is reported, joined in deterministic
// (phase, task, insertion) order, so a multi-task failure is
// attributable task by task rather than collapsing to whichever error
// won the race. A panicking node becomes a node failure rather than a
// dead engine — the moral equivalent of a Hadoop task attempt dying
// without taking the job tracker down.
func (g *taskGraph) execute(workers int) error {
	if len(g.nodes) == 0 {
		return nil
	}
	if workers > len(g.nodes) {
		workers = len(g.nodes)
	}
	if workers < 1 {
		workers = 1
	}
	r := &dagRun{
		ready:  make(chan *dagNode, len(g.nodes)),
		done:   make(chan struct{}),
		undone: len(g.nodes),
	}
	for _, n := range g.nodes {
		if n.waits == 0 {
			r.ready <- n
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	wg.Wait()
	if len(r.failures) == 0 {
		return nil
	}
	sort.Slice(r.failures, func(i, j int) bool {
		a, b := r.failures[i], r.failures[j]
		if a.key.phase != b.key.phase {
			return a.key.phase < b.key.phase
		}
		if a.key.task != b.key.task {
			return a.key.task < b.key.task
		}
		return a.seq < b.seq
	})
	errs := make([]error, len(r.failures))
	for i, f := range r.failures {
		errs[i] = f.err
	}
	return errors.Join(errs...)
}

// work is one worker's dispatch loop. A queued node is only executed
// if no failure has landed yet — after the first failure, queued nodes
// are drained without running (stop-dispatch), in-flight nodes finish,
// and the last completion closes `done`.
func (r *dagRun) work() {
	for {
		select {
		case <-r.done:
			return
		case n := <-r.ready:
			r.mu.Lock()
			if r.failed {
				r.mu.Unlock()
				continue
			}
			r.inflight++
			r.mu.Unlock()
			// Each node runs on a fresh goroutine (the worker blocks on
			// it, so concurrency stays capped at `workers`): task goroutines
			// start with zero GC assist debt, instead of long-lived workers
			// accumulating the whole job's debt and stalling on assists.
			ch := make(chan error, 1)
			go func() { ch <- runNodeSafe(n) }()
			r.complete(n, <-ch)
		}
	}
}

// complete records one node's outcome and enqueues newly-ready
// successors; when the graph can make no further progress — all nodes
// done, or a failure landed and the in-flight tail drained — it closes
// `done` to release the workers.
func (r *dagRun) complete(n *dagNode, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight--
	r.undone--
	if err != nil {
		r.failures = append(r.failures, nodeFailure{key: n.key, seq: n.seq, err: err})
		r.failed = true
	} else if !r.failed {
		for _, s := range n.succs {
			s.waits--
			if s.waits == 0 {
				r.ready <- s // buffered to node count; never blocks
			}
		}
	}
	if r.undone == 0 || (r.failed && r.inflight == 0) {
		close(r.done)
	}
}

func runNodeSafe(n *dagNode) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mapreduce: task %d panicked: %v", n.key.task, p)
		}
	}()
	return n.run()
}

// runAttempted executes one task body — through the attempt runtime's
// retry ladder when it is active, directly otherwise — recording the
// attempt history in att[i]. With speculation on, the committed result
// keeps its runs' digest, which a backup is checked against once the
// runs are handed over.
func runAttempted(fr *faultRuntime, phase live.Phase, att []*taskAttempts, i int,
	exec func(i int) (TaskResult, error)) (TaskResult, error) {
	if fr == nil {
		return exec(i)
	}
	res, ta, err := runTaskAttempts(fr, phase, i, func() (TaskResult, error) {
		return exec(i)
	})
	att[i] = ta
	if err == nil && fr.policy.Speculation {
		res.sum = runsDigest(res.runs)
	}
	return res, err
}

// runJobGraph is the one job-graph builder: it wires cfg's map, reduce,
// and speculation nodes, gives them the bodies b, and executes the
// graph, filling po. po holds the partition stores even when this
// returns an error; Run settles them.
func runJobGraph(cfg *Config, fr *faultRuntime, workers int, po *phaseOutputs, b taskBodies) error {
	M, R := cfg.NumMapTasks, cfg.NumReduceTasks
	speculate := fr != nil && fr.policy.Speculation

	// Both phases' attempt slots are allocated up front: tasks of
	// different phases may run interleaved, and each node writes only
	// its own index.
	var mapAtt, redAtt []*taskAttempts
	if fr != nil {
		mapAtt = fr.beginPhase(live.PhaseMap, M)
		redAtt = fr.beginPhase(live.PhaseReduce, R)
	}

	g := &taskGraph{}
	mapNodes := make([]*dagNode, M)
	for m := 0; m < M; m++ {
		m := m
		mapNodes[m] = g.node(nodeKey{nodeMap, m}, func() error {
			res, err := runAttempted(fr, live.PhaseMap, mapAtt, m, b.mapTask)
			if err != nil {
				return err
			}
			// Hand the committed runs to the partition stores and drop the
			// task's own references: from here on, residency of this map
			// task's records is the stores' call — under a budget, each
			// run's values too, once addRun has made them its own. A
			// leased map task has no runs here; its Parts locate them.
			for r, run := range res.runs {
				if err := po.stores[r].addRun(m, run); err != nil {
					return err
				}
			}
			res.runs = nil
			po.mapRes[m] = res
			return nil
		})
	}

	redNodes := make([]*dagNode, R)
	for i := 0; i < R; i++ {
		i := i
		redNodes[i] = g.node(nodeKey{nodeReduce, i}, func() error {
			res, err := runAttempted(fr, live.PhaseReduce, redAtt, i, b.reduce)
			if err != nil {
				return err
			}
			po.reduceRes[i] = res
			return nil
		})
		for _, mn := range mapNodes {
			g.edge(mn, redNodes[i])
		}
	}

	if speculate {
		addSpeculationNodes(g, fr, live.PhaseMap, nodeSpecMap, mapNodes, po.mapRes, b.mapTask)
		addSpeculationNodes(g, fr, live.PhaseReduce, nodeSpecReduce, redNodes, po.reduceRes, b.reduce)
	}
	return g.execute(workers)
}

// addSpeculationNodes wires one phase's straggler pass into the graph:
// a gate node, dependent on every task of the phase, computes the
// straggler threshold (the quantile needs the whole phase's cost
// distribution — the one ordering constraint speculation genuinely
// has); then one node per task runs the speculateTask check against
// the committed result in res. Speculation nodes have no successors —
// a winning backup is verified to match the committed output — so
// reduce work never waits on them.
func addSpeculationNodes(g *taskGraph, fr *faultRuntime, phase live.Phase, np nodePhase,
	taskNodes []*dagNode, res []TaskResult, exec func(i int) (TaskResult, error)) {
	n := len(taskNodes)
	if n < 2 {
		return
	}
	var thr costmodel.Units
	gate := g.node(nodeKey{np, -1}, func() error {
		thr = quantile(taskCosts(res), defaultSpeculationQuantile)
		return nil
	})
	for _, tn := range taskNodes {
		g.edge(tn, gate)
	}
	for i := 0; i < n; i++ {
		i := i
		sn := g.node(nodeKey{np, i}, func() error {
			if thr <= 0 {
				return nil
			}
			return speculateTask(fr, phase, i, thr, res[i], exec)
		})
		g.edge(gate, sn)
	}
}
