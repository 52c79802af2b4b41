// Package progress implements the evaluation-side measures of the
// paper: duplicate-recall-versus-cost curves (the y/x axes of
// Figs. 8–10), the discrete-sampling quality function Qty of Eq. 1, and
// the recall speedup of Fig. 11.
package progress

import (
	"fmt"
	"sort"

	"proger/internal/costmodel"
	"proger/internal/entity"
)

// Event is one resolved duplicate pair with the global simulated time
// at which it was produced.
type Event struct {
	Time costmodel.Units
	Pair entity.Pair
	// TrueDup marks whether the pair is a ground-truth duplicate
	// (the resolve function can have false positives).
	TrueDup bool
}

// Point is one step of a recall curve.
type Point struct {
	Time   costmodel.Units
	Found  int64 // cumulative correctly identified duplicate pairs
	Recall float64
}

// Curve is duplicate recall as a non-decreasing step function of cost.
type Curve struct {
	Points []Point
	// Total is N: the number of ground-truth duplicate pairs.
	Total int64
	// End is the completion time of the whole run (recall stays flat
	// from the last event to End).
	End costmodel.Units
}

// BuildCurve constructs the recall curve from resolution events.
// Events are sorted by time; only the first discovery of each
// ground-truth pair counts (re-finds and false positives contribute
// nothing to recall).
func BuildCurve(events []Event, totalDups int64, end costmodel.Units) *Curve {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	c := &Curve{Total: totalDups, End: end}
	seen := entity.PairSet{}
	var found int64
	for _, ev := range sorted {
		if !ev.TrueDup || !seen.Add(ev.Pair) {
			continue
		}
		found++
		recall := 0.0
		if totalDups > 0 {
			recall = float64(found) / float64(totalDups)
		}
		c.Points = append(c.Points, Point{Time: ev.Time, Found: found, Recall: recall})
	}
	return c
}

// RecallAt returns the recall achieved by time t.
func (c *Curve) RecallAt(t costmodel.Units) float64 {
	// Binary search for the last point with Time ≤ t.
	lo, hi := 0, len(c.Points)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Points[mid].Time <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return c.Points[lo-1].Recall
}

// FinalRecall returns the recall at the end of the run.
func (c *Curve) FinalRecall() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Recall
}

// TimeToRecall returns the earliest time at which the curve reaches
// recall r, and whether it ever does.
func (c *Curve) TimeToRecall(r float64) (costmodel.Units, bool) {
	for _, p := range c.Points {
		if p.Recall >= r {
			return p.Time, true
		}
	}
	return 0, false
}

// Sample evaluates recall at each time, for plotting a fixed grid.
func (c *Curve) Sample(times []costmodel.Units) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = c.RecallAt(t)
	}
	return out
}

// Qty is the discrete sampling quality function of Eq. 1:
//
//	Qty = (1/N) · Σᵢ W(cᵢ) · Result(cᵢ)
//
// where Result(cᵢ) is the number of correct duplicate pairs identified
// in (cᵢ₋₁, cᵢ]. costs must be strictly increasing and weights
// non-increasing in [0,1], one per cost.
func Qty(c *Curve, costs []costmodel.Units, weights []float64) (float64, error) {
	if len(costs) == 0 || len(costs) != len(weights) {
		return 0, fmt.Errorf("progress: need equal non-empty costs and weights (%d, %d)", len(costs), len(weights))
	}
	prevCost := costmodel.Units(0)
	prevW := 1.0
	for i := range costs {
		if costs[i] <= prevCost {
			return 0, fmt.Errorf("progress: costs must be strictly increasing at %d", i)
		}
		if weights[i] < 0 || weights[i] > 1 || weights[i] > prevW {
			return 0, fmt.Errorf("progress: weights must be non-increasing in [0,1] at %d", i)
		}
		prevCost, prevW = costs[i], weights[i]
	}
	if c.Total == 0 {
		return 0, nil
	}
	q := 0.0
	var prevFound int64
	for i, ci := range costs {
		var foundAt int64
		// Found at ci = Found of last point with Time ≤ ci.
		lo, hi := 0, len(c.Points)
		for lo < hi {
			mid := (lo + hi) / 2
			if c.Points[mid].Time <= ci {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			foundAt = c.Points[lo-1].Found
		}
		q += weights[i] * float64(foundAt-prevFound)
		prevFound = foundAt
	}
	return q / float64(c.Total), nil
}

// AUC returns the normalized area under the recall-vs-cost curve over
// [0, End]: 1.0 means all duplicates were known from time zero, 0 means
// none were ever found. A scalar summary of progressiveness that, like
// Qty with uniform weights, rewards early discovery.
func (c *Curve) AUC() float64 {
	if c.End <= 0 || c.Total == 0 {
		return 0
	}
	area := 0.0
	prevTime := costmodel.Units(0)
	prevRecall := 0.0
	for _, p := range c.Points {
		t := p.Time
		if t > c.End {
			t = c.End
		}
		area += float64(t-prevTime) * prevRecall
		prevTime = t
		prevRecall = p.Recall
	}
	if prevTime < c.End {
		area += float64(c.End-prevTime) * prevRecall
	}
	return area / float64(c.End)
}

// Speedup returns how much faster `fast` reaches the given recall than
// `slow`: time(slow, r) / time(fast, r). The second return is false if
// either curve never reaches r. This is the recall speedup of Fig. 11
// (slow = the 5-machine run, fast = the μ-machine run).
func Speedup(slow, fast *Curve, recall float64) (float64, bool) {
	ts, ok := slow.TimeToRecall(recall)
	if !ok {
		return 0, false
	}
	tf, ok := fast.TimeToRecall(recall)
	if !ok || tf <= 0 {
		return 0, false
	}
	return float64(ts) / float64(tf), true
}
