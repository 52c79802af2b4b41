package proger_test

import (
	"testing"

	"proger"
)

// TestScalePipeline runs the full pipeline at a scale an order of
// magnitude beyond the unit tests (skipped with -short). It guards
// against quadratic blowups in the schedule generator, degenerate
// splitting loops, and memory growth in the shuffle, and asserts the
// quality invariants still hold.
func TestScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 20000
	ds, gt, opts := workload(t, "publications", n, 77)
	opts.Machines = 25 // the paper's full cluster
	res, err := proger.Resolve(ds, opts)
	if err != nil {
		t.Fatalf("Resolve at scale: %v", err)
	}
	curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
	if fr := curve.FinalRecall(); fr < 0.6 {
		t.Errorf("final recall %.3f at scale", fr)
	}
	// Redundancy-free resolution must hold at scale.
	seen := proger.PairSet{}
	for _, ev := range res.Events {
		if !seen.Add(ev.Pair) {
			t.Fatalf("pair %v emitted twice at scale", ev.Pair)
		}
	}
	// The recall curve must rise well before the end (progressiveness).
	half := curve.RecallAt(res.TotalTime / 2)
	if half < curve.FinalRecall()*0.6 {
		t.Errorf("only %.3f of %.3f recall by half time — not progressive", half, curve.FinalRecall())
	}
	t.Logf("scale run: %d entities, %d true pairs, final recall %.3f, total %.0f units",
		ds.Len(), gt.NumDupPairs(), curve.FinalRecall(), res.TotalTime)
}

// TestScaleOutOfCore runs the pipeline at scale under a memory budget
// a small fraction of the raw shuffle volume (skipped with -short).
// It guards the out-of-core contract: the workload completes with the
// tracked peak held under the budget while total charged bytes exceed
// it several times over, and the result — every duplicate event and
// timestamp, hence the progressive-recall curve — is identical to the
// unconstrained in-memory run.
func TestScaleOutOfCore(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 12000
	const budget = 1 << 20 // 1 MiB, far below the shuffle volume
	ds, gt, opts := workload(t, "publications", n, 77)
	run := func(budgetBytes int64, spillDir string) (*proger.Result, *proger.MetricsRegistry) {
		metrics := proger.NewMetricsRegistry()
		opts.Host = proger.Host{Metrics: metrics, MemBudget: budgetBytes, SpillDir: spillDir}
		res, err := proger.Resolve(ds, opts)
		if err != nil {
			t.Fatalf("Resolve (budget %d): %v", budgetBytes, err)
		}
		return res, metrics
	}
	ref, _ := run(0, "")
	res, metrics := run(budget, t.TempDir())

	if len(res.Events) != len(ref.Events) {
		t.Fatalf("budget run found %d events, in-memory %d", len(res.Events), len(ref.Events))
	}
	for i := range res.Events {
		if res.Events[i] != ref.Events[i] {
			t.Fatalf("event %d diverged under budget: %+v vs %+v", i, res.Events[i], ref.Events[i])
		}
	}
	if res.TotalTime != ref.TotalTime {
		t.Errorf("total time %v under budget, want %v", res.TotalTime, ref.TotalTime)
	}
	peak := int64(metrics.Gauge(proger.GaugeMemBudgetPeakBytes).Value())
	charged := int64(metrics.Gauge(proger.GaugeMemBudgetChargedBytes).Value())
	if peak > budget {
		t.Errorf("tracked peak %d B exceeded the %d B budget", peak, budget)
	}
	if charged < 4*budget {
		t.Errorf("charged total %d B < 4× budget %d B — workload too small to prove out-of-core operation", charged, budget)
	}
	spills := metrics.Counter(proger.CounterBudgetForcedSpills).Value()
	if spills == 0 {
		t.Error("no forced spills at scale under a 1 MiB budget")
	}
	curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
	t.Logf("out-of-core scale run: %d entities, budget %d B, peak %d B, charged %d B (%.1f× budget), %d forced spills, %d B spilled, final recall %.3f",
		ds.Len(), int64(budget), peak, charged, float64(charged)/float64(budget),
		spills, metrics.Counter(proger.CounterBudgetSpilledBytes).Value(), curve.FinalRecall())
}
