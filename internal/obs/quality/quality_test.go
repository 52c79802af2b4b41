package quality

import (
	"io"
	"math"
	"strings"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.RecordPrediction(BlockPrediction{SQ: 1})
	r.RecordPlan(TaskPlan{Task: 0})
	r.ObserveBlock(BlockObs{SQ: 1})
	r.SetBucketLabels([]string{"a"})
	if r.Predictions() != nil || r.Plans() != nil || r.Observations() != nil {
		t.Error("nil recorder returned data")
	}
	if r.Export(0) != nil {
		t.Error("nil recorder exported")
	}
}

func TestObservationsOrder(t *testing.T) {
	r := NewRecorder()
	r.ObserveBlock(BlockObs{ID: "b", SQ: 2, Task: 1, End: 30})
	r.ObserveBlock(BlockObs{ID: "a", SQ: 1, Task: 0, End: 30})
	r.ObserveBlock(BlockObs{ID: "c", SQ: 3, Task: 0, End: 10})
	obs := r.Observations()
	want := []string{"c", "a", "b"} // End asc, then Task, SQ, ID
	for i, o := range obs {
		if o.ID != want[i] {
			t.Fatalf("order %d = %q, want %q (all: %+v)", i, o.ID, want[i], obs)
		}
	}
}

func TestBuildCurve(t *testing.T) {
	r := NewRecorder()
	// Three resolutions: dups 2 at t=10, 0 at t=20, 2 at t=40.
	r.ObserveBlock(BlockObs{ID: "a", SQ: 1, Start: 0, End: 10, Compared: 5, Dups: 2})
	r.ObserveBlock(BlockObs{ID: "b", SQ: 2, Start: 10, End: 20, Compared: 3})
	r.ObserveBlock(BlockObs{ID: "c", SQ: 3, Start: 20, End: 40, Compared: 8, Dups: 2})

	c := r.BuildCurve(10)
	if c.End != 40 || c.FinalBlocks != 3 || c.FinalPairs != 16 || c.FinalDups != 4 {
		t.Fatalf("curve totals: %+v", c)
	}
	// Samples at 10, 20, 30, 40.
	if len(c.Points) != 4 {
		t.Fatalf("got %d points, want 4: %+v", len(c.Points), c.Points)
	}
	wantRecall := []float64{0.5, 0.5, 0.5, 1}
	wantDups := []int64{2, 2, 2, 4}
	for i, p := range c.Points {
		if p.Recall != wantRecall[i] || p.Dups != wantDups[i] {
			t.Errorf("point %d = %+v, want recall %g dups %d", i, p, wantRecall[i], wantDups[i])
		}
		if p.Cost != float64(10*(i+1)) {
			t.Errorf("point %d cost = %g", i, p.Cost)
		}
	}
	// Exact step AUC: recall 0 on [0,10), 0.5 on [10,40), 1 at 40
	// → (0·10 + 0.5·30) / 40 = 0.375.
	if c.AUC != 0.375 {
		t.Errorf("AUC = %g, want 0.375", c.AUC)
	}

	// Monotonicity invariants hold for an uneven interval too.
	c7 := r.BuildCurve(7)
	prevCost, prevRecall := -1.0, 0.0
	for _, p := range c7.Points {
		if p.Cost <= prevCost {
			t.Fatalf("cost not strictly increasing: %+v", c7.Points)
		}
		if p.Recall < prevRecall {
			t.Fatalf("recall decreasing: %+v", c7.Points)
		}
		prevCost, prevRecall = p.Cost, p.Recall
	}
	if last := c7.Points[len(c7.Points)-1]; last.Cost != 40 || last.Recall != 1 {
		t.Errorf("closing sample = %+v, want cost 40 recall 1", last)
	}

	// Empty recorder yields a zero curve and AUC 0.
	empty := NewRecorder().BuildCurve(0)
	if empty.AUC != 0 || len(empty.Points) != 0 {
		t.Errorf("empty curve = %+v", empty)
	}
}

// TestBuildCurveBoundsItsInterval: a tiny sampling interval is raised
// to End/maxCurvePoints, and a non-finite one means the default, so
// the curve stays small and its export encodes.
func TestBuildCurveBoundsItsInterval(t *testing.T) {
	r := NewRecorder()
	r.ObserveBlock(BlockObs{ID: "a", SQ: 1, End: 1e4, Compared: 1, Dups: 1})
	c := r.BuildCurve(1e-2)
	if c.SampleEvery != 1e4/maxCurvePoints || len(c.Points) > maxCurvePoints+1 {
		t.Errorf("interval 1e-2 on end 1e4: sampled every %g, %d points", c.SampleEvery, len(c.Points))
	}
	for _, every := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := r.BuildCurve(every).SampleEvery; got != 1e4/64 {
			t.Errorf("interval %g: sampled every %g, want the default %g", every, got, 1e4/64)
		}
		for _, rec := range []*Recorder{r, NewRecorder()} {
			if err := rec.Export(every).WriteJSON(io.Discard); err != nil {
				t.Errorf("interval %g: WriteJSON: %v", every, err)
			}
		}
	}
}

func TestBuildReport(t *testing.T) {
	r := NewRecorder()
	r.SetBucketLabels([]string{"<1e-4", "[1e-4,1e-3)"})
	r.RecordPlan(TaskPlan{Task: 0, Trees: 1, Blocks: 2, EstCost: 30, Slack: 2})
	r.RecordPlan(TaskPlan{Task: 1, Trees: 1, Blocks: 1, EstCost: 25, Slack: 0})
	r.RecordPrediction(BlockPrediction{ID: "a", SQ: 1, Task: 0, Bucket: 0, Dup: 3, Cost: 20})
	r.RecordPrediction(BlockPrediction{ID: "b", SQ: 2, Task: 0, Bucket: 1, Dup: 1, Cost: 10})
	r.RecordPrediction(BlockPrediction{ID: "c", SQ: 1_000_000_001, Task: 1, Bucket: 0, Dup: 2, Cost: 25})
	r.ObserveBlock(BlockObs{ID: "a", SQ: 1, Task: 0, Start: 0, End: 18, Compared: 9, Dups: 1})
	r.ObserveBlock(BlockObs{ID: "c", SQ: 1_000_000_001, Task: 1, Start: 0, End: 30, Compared: 12, Dups: 4})
	// Block b never resolved (e.g. empty tree): realized-zero row.

	rep := r.BuildReport()
	if len(rep.Blocks) != 3 {
		t.Fatalf("got %d block rows, want 3", len(rep.Blocks))
	}
	a := rep.Blocks[0]
	if a.ID != "a" || !a.Resolved || a.DupErr != 2 || a.Cost != 18 {
		t.Errorf("block a = %+v", a)
	}
	b := rep.Blocks[1]
	if b.ID != "b" || b.Resolved || b.DupErr != 1 {
		t.Errorf("block b = %+v", b)
	}
	c := rep.Blocks[2]
	if c.ID != "c" || c.Task != 1 || c.DupErr != -2 {
		t.Errorf("block c = %+v", c)
	}

	if len(rep.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(rep.Buckets), rep.Buckets)
	}
	b0 := rep.Buckets[0] // blocks a and c: errs +2 and −2
	if b0.Label != "<1e-4" || b0.Blocks != 2 || b0.MeanAbsErr != 2 || b0.Bias != 0 {
		t.Errorf("bucket 0 = %+v", b0)
	}
	b1 := rep.Buckets[1] // block b: err +1
	if b1.Blocks != 1 || b1.MeanAbsErr != 1 || b1.Bias != 1 {
		t.Errorf("bucket 1 = %+v", b1)
	}

	if len(rep.Tasks) != 2 {
		t.Fatalf("got %d task rows, want 2", len(rep.Tasks))
	}
	t0 := rep.Tasks[0]
	// Realized: 18 (task 0) and 30 (task 1), mean 24.
	if t0.PlannedCost != 30 || t0.RealizedCost != 18 || t0.CostErr != -12 || t0.Skew != 0.75 {
		t.Errorf("task 0 = %+v", t0)
	}
	t1 := rep.Tasks[1]
	if t1.RealizedCost != 30 || t1.CostErr != 5 || t1.Skew != 1.25 {
		t.Errorf("task 1 = %+v", t1)
	}

	// WorstBlocks ranks by |DupErr| and MostSkewed by |CostErr|.
	worst := rep.WorstBlocks(2)
	if len(worst) != 2 || worst[0].ID != "a" || worst[1].ID != "c" {
		t.Errorf("worst = %+v", worst)
	}
	skewed := rep.MostSkewed(1)
	if len(skewed) != 1 || skewed[0].Task != 0 {
		t.Errorf("skewed = %+v", skewed)
	}
}

func TestBasicBaselineReport(t *testing.T) {
	// No schedule: SQ −1 observations produce realized-only task rows
	// and empty block/bucket sections.
	r := NewRecorder()
	r.ObserveBlock(BlockObs{ID: "0|jo", SQ: -1, Task: 0, Start: 0, End: 12, Compared: 4, Dups: 1})
	r.ObserveBlock(BlockObs{ID: "1|ca", SQ: -1, Task: 1, Start: 0, End: 20, Compared: 6, Dups: 2})
	rep := r.BuildReport()
	if len(rep.Blocks) != 0 || len(rep.Buckets) != 0 {
		t.Errorf("baseline report has prediction rows: %+v", rep)
	}
	if len(rep.Tasks) != 2 || rep.Tasks[0].RealizedBlocks != 1 || rep.Tasks[1].RealizedCost != 20 {
		t.Errorf("baseline tasks = %+v", rep.Tasks)
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder()
		r.SetBucketLabels([]string{"b0"})
		r.RecordPlan(TaskPlan{Task: 0, Blocks: 1, EstCost: 10})
		r.RecordPrediction(BlockPrediction{ID: "a", SQ: 1, Bucket: 0, Dup: 1.5, Cost: 10, Util: 0.15})
		r.ObserveBlock(BlockObs{ID: "a", SQ: 1, Start: 3, End: 13, Compared: 7, Dups: 2})
		return r
	}
	var j1, j2, c1 strings.Builder
	if err := build().Export(5).WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().Export(5).WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Error("JSON export not deterministic")
	}
	if !strings.Contains(j1.String(), "\"auc\"") || !strings.Contains(j1.String(), "\"calibration\"") {
		t.Errorf("export missing sections:\n%s", j1.String())
	}
	if err := build().Export(5).Curve.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(c1.String()), "\n")
	if lines[0] != "cost,blocks,pairs,dups,recall" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 4 { // samples at 5, 10, 13
		t.Errorf("csv rows = %d, want 4:\n%s", len(lines), c1.String())
	}
	if lines[3] != "13,1,7,2,1" {
		t.Errorf("closing csv row = %q", lines[3])
	}
}
