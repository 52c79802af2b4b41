package quality

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

// Point is one step of a recall curve: Found duplicates are known by
// Time.
type Point struct {
	Time  costmodel.Units
	Found int64
}

// Curve is duplicate recall as a non-decreasing step function of
// simulated cost: the y/x axes of Figs. 8–10, and the one curve every
// recall figure, AUC and export of the repository reads. Recall at a
// step is Found / Total.
type Curve struct {
	// Points are the steps, at non-decreasing Time.
	Points []Point
	// Total is N: the number of duplicate pairs recall is relative to.
	Total int64
	// End is the completion time of the whole run (recall stays flat
	// from the last step to End).
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
		c.Points = append(c.Points, Point{Time: ev.Time, Found: found})
	}
	return c
}

// observedCurve is the recall curve of block resolutions in completion
// order: one step at every distinct End, blocks that found nothing
// included, relative to the blocks' own duplicate total (the pipeline
// has no ground truth).
func observedCurve(obs []BlockObs) *Curve {
	c := &Curve{}
	for _, o := range obs {
		c.Total += o.Dups
		if n := len(c.Points); n > 0 && c.Points[n-1].Time == o.End {
			c.Points[n-1].Found = c.Total
		} else {
			c.Points = append(c.Points, Point{Time: o.End, Found: c.Total})
		}
		c.End = o.End
	}
	return c
}

// recall is found as a share of Total (0 when Total is 0).
func (c *Curve) recall(found int64) float64 {
	if c.Total <= 0 {
		return 0
	}
	return float64(found) / float64(c.Total)
}

// foundAt returns the duplicates known by time t.
func (c *Curve) foundAt(t costmodel.Units) int64 {
	i := sort.Search(len(c.Points), func(i int) bool { return c.Points[i].Time > t })
	if i == 0 {
		return 0
	}
	return c.Points[i-1].Found
}

// RecallAt returns the recall achieved by time t.
func (c *Curve) RecallAt(t costmodel.Units) float64 { return c.recall(c.foundAt(t)) }

// FinalRecall returns the recall at the end of the run.
func (c *Curve) FinalRecall() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.recall(c.Points[len(c.Points)-1].Found)
}

// TimeToRecall returns the earliest time at which the curve reaches
// recall r, and whether it ever does.
func (c *Curve) TimeToRecall(r float64) (costmodel.Units, bool) {
	for _, p := range c.Points {
		if c.recall(p.Found) >= r {
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

// Grid is the uniform grid of n times that ends at end: end·i/n for
// i = 1, …, n.
func Grid(end costmodel.Units, n int) []costmodel.Units {
	times := make([]costmodel.Units, max(n, 0))
	for i := range times {
		times[i] = end * costmodel.Units(i+1) / costmodel.Units(n)
	}
	return times
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
		return 0, fmt.Errorf("quality: need equal non-empty costs and weights (%d, %d)", len(costs), len(weights))
	}
	prevCost := costmodel.Units(0)
	prevW := 1.0
	for i := range costs {
		if costs[i] <= prevCost {
			return 0, fmt.Errorf("quality: costs must be strictly increasing at %d", i)
		}
		if weights[i] < 0 || weights[i] > 1 || weights[i] > prevW {
			return 0, fmt.Errorf("quality: weights must be non-increasing in [0,1] at %d", i)
		}
		prevCost, prevW = costs[i], weights[i]
	}
	if c.Total == 0 {
		return 0, nil
	}
	q := 0.0
	var prevFound int64
	for i, ci := range costs {
		found := c.foundAt(ci)
		q += weights[i] * float64(found-prevFound)
		prevFound = found
	}
	return q / float64(c.Total), nil
}

// AUC returns the normalized area under the recall-vs-cost step
// function over [0, End], integrated exactly: 1.0 means all duplicates
// were known from time zero, 0 means none were ever found. A scalar
// summary of progressiveness that, like Qty with uniform weights,
// rewards early discovery. It is the repository's one integrator of
// recall over cost.
func (c *Curve) AUC() float64 {
	if c.End <= 0 || c.Total == 0 {
		return 0
	}
	area := 0.0
	prevTime := costmodel.Units(0)
	prevRecall := 0.0
	for _, p := range c.Points {
		t := min(p.Time, c.End)
		area += float64(t-prevTime) * prevRecall
		prevTime = t
		prevRecall = c.recall(p.Found)
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
