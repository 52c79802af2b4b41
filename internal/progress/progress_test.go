package progress

import (
	"math/rand"
	"testing"

	"proger/internal/costmodel"
	"proger/internal/entity"
)

func ev(t costmodel.Units, lo, hi int32, dup bool) Event {
	return Event{Time: t, Pair: entity.MakePair(entity.ID(lo), entity.ID(hi)), TrueDup: dup}
}

func TestBuildCurveBasics(t *testing.T) {
	events := []Event{
		ev(10, 0, 1, true),
		ev(5, 2, 3, true),
		ev(20, 4, 5, false), // false positive: no recall contribution
		ev(30, 0, 1, true),  // re-find: ignored
		ev(40, 6, 7, true),
	}
	c := BuildCurve(events, 4, 100)
	if len(c.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(c.Points))
	}
	if c.Points[0].Time != 5 || c.Points[0].Found != 1 {
		t.Errorf("first point = %+v", c.Points[0])
	}
	if c.FinalRecall() != 0.75 {
		t.Errorf("final recall = %v, want 0.75", c.FinalRecall())
	}
	if c.End != 100 {
		t.Errorf("End = %v", c.End)
	}
}

func TestCurveMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var events []Event
	for i := 0; i < 500; i++ {
		events = append(events, ev(costmodel.Units(rng.Intn(1000)), int32(rng.Intn(40)), int32(rng.Intn(40)+41), rng.Intn(2) == 0))
	}
	c := BuildCurve(events, 400, 1000)
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Time < c.Points[i-1].Time {
			t.Fatalf("times not sorted at %d", i)
		}
		if c.Points[i].Found != c.Points[i-1].Found+1 {
			t.Fatalf("found not incrementing at %d", i)
		}
		if c.Points[i].Recall <= c.Points[i-1].Recall {
			t.Fatalf("recall not increasing at %d", i)
		}
	}
}

func TestRecallAt(t *testing.T) {
	c := BuildCurve([]Event{
		ev(10, 0, 1, true), ev(20, 2, 3, true), ev(30, 4, 5, true), ev(40, 6, 7, true),
	}, 4, 50)
	cases := map[costmodel.Units]float64{
		0: 0, 9.99: 0, 10: 0.25, 15: 0.25, 20: 0.5, 39: 0.75, 40: 1, 1000: 1,
	}
	for at, want := range cases {
		if got := c.RecallAt(at); got != want {
			t.Errorf("RecallAt(%v) = %v, want %v", at, got, want)
		}
	}
}

func TestTimeToRecall(t *testing.T) {
	c := BuildCurve([]Event{
		ev(10, 0, 1, true), ev(20, 2, 3, true),
	}, 4, 50)
	if tt, ok := c.TimeToRecall(0.25); !ok || tt != 10 {
		t.Errorf("TimeToRecall(0.25) = %v,%v", tt, ok)
	}
	if tt, ok := c.TimeToRecall(0.5); !ok || tt != 20 {
		t.Errorf("TimeToRecall(0.5) = %v,%v", tt, ok)
	}
	if _, ok := c.TimeToRecall(0.9); ok {
		t.Error("recall 0.9 never reached; want ok=false")
	}
}

func TestSample(t *testing.T) {
	c := BuildCurve([]Event{ev(10, 0, 1, true), ev(20, 2, 3, true)}, 2, 30)
	got := c.Sample([]costmodel.Units{5, 10, 25})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQty(t *testing.T) {
	// 4 dups at t=5,15,25,35; N=4. Costs 10/20/30/40, weights 1/.75/.5/.25.
	c := BuildCurve([]Event{
		ev(5, 0, 1, true), ev(15, 2, 3, true), ev(25, 4, 5, true), ev(35, 6, 7, true),
	}, 4, 40)
	costs := []costmodel.Units{10, 20, 30, 40}
	weights := []float64{1, 0.75, 0.5, 0.25}
	q, err := Qty(c, costs, weights)
	if err != nil {
		t.Fatalf("Qty: %v", err)
	}
	want := (1*1.0 + 1*0.75 + 1*0.5 + 1*0.25) / 4
	if q < want-1e-12 || q > want+1e-12 {
		t.Errorf("Qty = %v, want %v", q, want)
	}
}

func TestQtyRewardsEarlierCurves(t *testing.T) {
	early := BuildCurve([]Event{ev(5, 0, 1, true), ev(6, 2, 3, true)}, 2, 100)
	late := BuildCurve([]Event{ev(80, 0, 1, true), ev(90, 2, 3, true)}, 2, 100)
	costs := []costmodel.Units{25, 50, 75, 100}
	weights := []float64{1, 0.75, 0.5, 0.25}
	qe, _ := Qty(early, costs, weights)
	ql, _ := Qty(late, costs, weights)
	if qe <= ql {
		t.Errorf("early curve Qty %v should beat late %v", qe, ql)
	}
}

func TestQtyValidation(t *testing.T) {
	c := BuildCurve(nil, 2, 10)
	if _, err := Qty(c, nil, nil); err == nil {
		t.Error("empty costs: want error")
	}
	if _, err := Qty(c, []costmodel.Units{5, 5}, []float64{1, 1}); err == nil {
		t.Error("non-increasing costs: want error")
	}
	if _, err := Qty(c, []costmodel.Units{5, 10}, []float64{0.5, 1}); err == nil {
		t.Error("increasing weights: want error")
	}
	if _, err := Qty(c, []costmodel.Units{5, 10}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	// Zero ground truth: Qty is defined as 0.
	if q, err := Qty(BuildCurve(nil, 0, 10), []costmodel.Units{5}, []float64{1}); err != nil || q != 0 {
		t.Errorf("zero-total Qty = %v, %v", q, err)
	}
}

func TestSpeedup(t *testing.T) {
	slow := BuildCurve([]Event{ev(100, 0, 1, true), ev(200, 2, 3, true)}, 2, 300)
	fast := BuildCurve([]Event{ev(25, 0, 1, true), ev(50, 2, 3, true)}, 2, 80)
	s, ok := Speedup(slow, fast, 0.5)
	if !ok || s != 4 {
		t.Errorf("Speedup(0.5) = %v,%v; want 4", s, ok)
	}
	s, ok = Speedup(slow, fast, 1.0)
	if !ok || s != 4 {
		t.Errorf("Speedup(1.0) = %v,%v; want 4", s, ok)
	}
	if _, ok := Speedup(slow, fast, 1.5); ok {
		t.Error("unreachable recall must return ok=false")
	}
}

func TestBuildCurveZeroTotal(t *testing.T) {
	c := BuildCurve([]Event{ev(5, 0, 1, true)}, 0, 10)
	if c.FinalRecall() != 0 {
		t.Errorf("recall with zero total = %v", c.FinalRecall())
	}
}

func TestAUC(t *testing.T) {
	// One dup (of one) found at t=0-ish → AUC ≈ 1.
	c := BuildCurve([]Event{ev(0, 0, 1, true)}, 1, 100)
	if got := c.AUC(); got != 1 {
		t.Errorf("immediate discovery AUC = %v, want 1", got)
	}
	// Found at the very end → AUC ≈ 0.
	c = BuildCurve([]Event{ev(100, 0, 1, true)}, 1, 100)
	if got := c.AUC(); got != 0 {
		t.Errorf("last-moment AUC = %v, want 0", got)
	}
	// Found halfway → AUC = 0.5.
	c = BuildCurve([]Event{ev(50, 0, 1, true)}, 1, 100)
	if got := c.AUC(); got != 0.5 {
		t.Errorf("halfway AUC = %v, want 0.5", got)
	}
	// Earlier curves have higher AUC.
	early := BuildCurve([]Event{ev(10, 0, 1, true), ev(20, 2, 3, true)}, 2, 100)
	late := BuildCurve([]Event{ev(70, 0, 1, true), ev(90, 2, 3, true)}, 2, 100)
	if early.AUC() <= late.AUC() {
		t.Errorf("early AUC %v should beat late %v", early.AUC(), late.AUC())
	}
	// Degenerate curves.
	if (BuildCurve(nil, 0, 10)).AUC() != 0 {
		t.Error("zero-total AUC")
	}
	if (BuildCurve(nil, 5, 0)).AUC() != 0 {
		t.Error("zero-end AUC")
	}
}
