package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"proger"
	"proger/internal/obs"
	"proger/internal/obs/quality"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Quick divides every size by 20, times one operation and skips the
	// kernel pass: the shape the tests run.
	Quick   bool
	WorkDir string
}

// quickDivisor scales datasets and the spill budget under -quick.
const quickDivisor = 20

// runResult is one run of one workload: the end-to-end metrics (Trace
// false) or the per-layer metrics (Trace true).
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Entities  int               `json:"entities"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"digest"`
	Metrics   map[string]sample `json:"metrics"`
}

func (r *runResult) set(name string, s sample) {
	s.Unit = unitOf[name]
	r.Metrics[name] = s
}

// datasetsPerRun is how many datasets a timed run resolves. One seed
// yields datasetsPerRun generator seeds, and every end-to-end metric is
// the mean over the datasets of its per-dataset value: the generators
// draw a vocabulary per seed, which alone moves the work in a dataset
// by 9 % between seeds, and a regression bound has to stand clear of
// that spread.
const datasetsPerRun = 3

// generatorSeed maps a run's seed and a dataset index to the seed the
// generators see. Dataset 0 is the one the traced pass, the reference
// operation and the reported digest use.
func generatorSeed(seed int64, dataset int) int64 {
	return seed*datasetsPerRun + int64(dataset)
}

// setUp generates one dataset and, on the dist workload, brings a fleet
// up and registers its workers — every distributed operation pays that
// again, outside its window. It returns the inputs and how long it took.
func (h *harness) setUp(n int, seed int64) (*inputs, float64, error) {
	t0 := time.Now()
	in := h.wl.generate(n, seed)
	if h.wl.Variant != dist2 {
		return in, time.Since(t0).Seconds(), nil
	}
	dir, err := h.freshDir()
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	fl, err := startFleet(dir, h.fleetN, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0).Seconds()
	fl.close()
	return in, took, nil
}

// runWorkload measures one workload in this process.
func runWorkload(wl *workload, cfg runConfig) (*runResult, error) {
	n, budget, datasets, setups, minOps := wl.Entities, int64(spillBudget), datasetsPerRun, 5, 2
	if cfg.Quick {
		n, budget, datasets, setups, minOps = n/quickDivisor, budget/quickDivisor, 1, 1, 1
		cfg.Seconds = 0
	}
	if cfg.Trace {
		datasets, setups = 1, 1
	}
	workDir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	h := newHarness(wl, workDir, budget)
	out := &runResult{Workload: wl.Name, Trace: cfg.Trace, Entities: n, Metrics: map[string]sample{}}

	// Set-up, several times per dataset so that its median is steady.
	ins := make([]*inputs, datasets)
	var setupTimes []float64
	for k := range ins {
		for i := 0; i < setups; i++ {
			in, took, err := h.setUp(n, generatorSeed(cfg.Seed, k))
			if err != nil {
				return nil, err
			}
			ins[k] = in
			setupTimes = append(setupTimes, took)
		}
	}

	// Warm-up, discarded. A variant of persons-exact then runs the
	// plain configuration once: the four persons-* workloads must
	// produce one digest, and the check holds in every run because the
	// reference travels with it.
	h.in = ins[0]
	if _, err := h.op(wl.Variant, hooks{live: true}); err != nil {
		return h.finish(out), nil
	}
	if wl.Variant != plain {
		if _, err := h.op(plain, hooks{live: true}); err != nil {
			return h.finish(out), nil
		}
	}
	out.Digest = h.in.digest

	if cfg.Trace {
		err = h.traceRun(out, cfg, setupTimes[0], minOps)
	} else {
		err = h.timedRun(out, cfg, ins, setupTimes, minOps)
	}
	if err != nil {
		return nil, err
	}
	return h.finish(out), nil
}

func (h *harness) finish(out *runResult) *runResult {
	out.Attempted, out.Failed, out.Failures = h.attempted, h.failed, h.failures
	return out
}

// timings are the successful timed operations on one dataset.
type timings struct {
	walls, halves []float64
	last          *proger.Result
}

// timedOps runs operations with only the live hub attached, one at a
// time and round-robin over the datasets, until every dataset has had
// minOps and the window is spent. The datasets take turns so that a
// slow spell of the host falls on all of them alike. Failed operations
// are counted by the harness and left out of the timings.
func (h *harness) timedOps(v variant, ins []*inputs, seconds float64, minOps int, each func(opOut)) []timings {
	ts := make([]timings, len(ins))
	start := time.Now()
	for n := 0; n < minOps*len(ins) || time.Since(start).Seconds() < seconds; n++ {
		k := n % len(ins)
		h.in = ins[k]
		runtime.GC()
		o, err := h.op(v, hooks{live: true})
		if err != nil {
			continue
		}
		t := &ts[k]
		t.walls, t.halves, t.last = append(t.walls, o.wall), append(t.halves, o.halfDups), o.res
		if each != nil {
			each(o)
		}
	}
	return ts
}

// timedRun fills the end-to-end metrics. A timing is the fastest
// operation on a dataset, averaged over the datasets: on a shared host
// interference only ever adds time, so the fastest of several repeats
// of the same work is the estimate of the program's own time that
// repeats from run to run. Median, Min, Max and N describe the single
// operations.
func (h *harness) timedRun(out *runResult, cfg runConfig, ins []*inputs, setupTimes []float64, minOps int) error {
	var wall, wallMed, half, halfMed, recall, auc []float64 // one value per dataset
	var walls, halves []float64                             // one value per operation
	for k, t := range h.timedOps(h.wl.Variant, ins, cfg.Seconds, minOps, nil) {
		if len(t.walls) == 0 {
			return nil // every operation on a dataset failed; the ledger says so
		}
		wall, wallMed = append(wall, slices.Min(t.walls)), append(wallMed, median(t.walls))
		half, halfMed = append(half, slices.Min(t.halves)), append(halfMed, median(t.halves))
		walls, halves = append(walls, t.walls...), append(halves, t.halves...)
		in := ins[k]
		curve := proger.BuildCurve(t.last.EventsAgainst(in.gt.IsDup), in.gt.NumDupPairs(), t.last.TotalTime)
		recall, auc = append(recall, curve.FinalRecall()), append(auc, curve.AUC())
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	combine := func(perDataset, perDatasetMedian, perOp []float64) sample {
		s := medianOf(perOp)
		s.Value, s.Median = mean(perDataset), mean(perDatasetMedian)
		return s
	}
	w := combine(wall, wallMed, walls)
	out.set(mResolveWall, w)
	out.set(mEntitiesPerS, sample{
		Value:  float64(out.Entities) / w.Value,
		Median: float64(out.Entities) / w.Median,
		Min:    float64(out.Entities) / w.Max,
		Max:    float64(out.Entities) / w.Min,
		N:      w.N,
	})
	out.set(mHalfDups, combine(half, halfMed, halves))
	out.set(mPeakRSS, single(rss))
	out.set(mSetup, medianOf(setupTimes))
	out.set(mRecallFinal, combine(recall, recall, recall))
	out.set(mRecallAUC, combine(auc, auc, auc))
	return nil
}

// traceRun fills the per-layer metrics: a share of the window on timed
// operations (the base of the overhead numbers), then one bare and one
// traced operation, the staged pass and the kernel pass.
func (h *harness) traceRun(out *runResult, cfg runConfig, setupSeconds float64, minOps int) error {
	for _, d := range perLayer {
		out.set(d.Name, single(0))
	}
	out.set("datagen.generate_s", single(setupSeconds))

	// The reference for the overhead of a variant: the plain
	// configuration, same process, same data.
	var refWall float64
	if h.wl.Variant != plain {
		refWall = median(h.timedOps(plain, []*inputs{h.in}, cfg.Seconds/6, minOps, nil)[0].walls)
	}

	var allocs, mallocs, pauses []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walls := h.timedOps(h.wl.Variant, []*inputs{h.in}, cfg.Seconds/3, minOps, func(opOut) {
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		pauses = append(pauses, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		before = after
	})[0].walls
	if len(walls) == 0 {
		return nil
	}
	timed := median(walls)
	out.set("runtime.alloc_mb_per_op", medianOf(allocs))
	out.set("runtime.mallocs_per_op", medianOf(mallocs))
	out.set("runtime.gc_pause_ms_per_op", medianOf(pauses))

	runtime.GC()
	bare, err := h.op(h.wl.Variant, hooks{})
	if err != nil {
		return nil
	}
	out.set(lLiveOverhead, single(100*(timed/bare.wall-1)))

	hk := hooks{live: true, trace: obs.New(), metrics: obs.NewRegistry(), quality: quality.NewRecorder()}
	if h.wl.Variant == dist2 {
		hk.masterReg, hk.workerReg = obs.NewRegistry(), obs.NewRegistry()
	}
	runtime.GC()
	traced, err := h.op(h.wl.Variant, hk)
	if err != nil {
		return nil
	}
	out.set(lTracedWall, single(traced.wall))
	out.set(lTracedOverhead, single(100*(traced.wall/timed-1)))
	h.resultMetrics(out, traced.res, timed)
	if err := h.spanMetrics(out, hk.trace, traced); err != nil {
		return err
	}
	h.registryMetrics(out, hk, traced, refWall)
	switch h.wl.Variant {
	case spill:
		out.set(lSpillOverhead, single(timed-refWall))
	case dist2:
		out.set(lDistOverhead, single(timed-refWall))
	}

	if err := h.stagedPass(out); err != nil {
		return fmt.Errorf("staged pass: %w", err)
	}
	if !cfg.Quick {
		if err := h.kernelPass(out, cfg.Seed, traced.res); err != nil {
			return fmt.Errorf("kernel pass: %w", err)
		}
	}
	return nil
}

// prepareWorkDir makes the directory every temporary file of the run
// lives under, and points the library's own temp files there too: the
// benchmark writes nowhere outside its checkout.
func prepareWorkDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	return abs, os.Setenv("TMPDIR", abs)
}
