package quality

import (
	"math"

	"proger/internal/costmodel"
)

// maxCurvePoints caps a curve's samples: a sampling interval shorter
// than End/maxCurvePoints is raised to it, so a curve holds at most
// maxCurvePoints+1 points (the last at End) whatever the caller asks.
const maxCurvePoints = 1 << 16

// CurvePoint is one sample of the progressive-recall curve.
type CurvePoint struct {
	// Cost is the cumulative global simulated cost at the sample.
	Cost float64 `json:"cost"`
	// Blocks, Pairs, and Dups are the cumulative blocks resolved,
	// pairs compared, and duplicates emitted by Cost.
	Blocks int64 `json:"blocks"`
	Pairs  int64 `json:"pairs"`
	Dups   int64 `json:"dups"`
	// Recall is Dups / FinalDups (the self-relative recall proxy: the
	// pipeline has no ground truth, so the curve normalizes against its
	// own final duplicate count; 0 when the run found nothing).
	Recall float64 `json:"recall"`
}

// Curve is the progressive-recall curve: cumulative resolution
// progress sampled every SampleEvery cost units on the global
// simulated clock, plus its normalized area under the recall-vs-cost
// step function.
type Curve struct {
	// SampleEvery is the sampling interval actually used.
	SampleEvery float64 `json:"sample_every"`
	// End is the completion time of the last block resolution.
	End float64 `json:"end"`
	// FinalBlocks, FinalPairs, and FinalDups are the run totals.
	FinalBlocks int64 `json:"final_blocks"`
	FinalPairs  int64 `json:"final_pairs"`
	FinalDups   int64 `json:"final_dups"`
	// AUC is the exact area under recall(t) over [0, End], normalized
	// by End — in [0, 1], 1 meaning every duplicate surfaced
	// immediately (perfect progressiveness), computed from the
	// un-sampled completion events rather than the Points grid.
	AUC float64 `json:"auc"`
	// Points are the samples, at strictly increasing cost.
	Points []CurvePoint `json:"points"`
}

// BuildCurve derives the progressive-recall curve from the recorded
// block realizations. sampleEvery ≤ 0, NaN or infinite picks End/64,
// and one below End/maxCurvePoints is raised to it. Each block's
// progress is attributed to its completion time — exact on the
// simulated clock, since the engine replays block resolutions with
// deterministic timestamps (sampling "during" and "after" the run are
// the same operation when time is simulated; see DESIGN.md §10).
func (r *Recorder) BuildCurve(sampleEvery costmodel.Units) *Curve {
	if math.IsNaN(sampleEvery) || math.IsInf(sampleEvery, 0) {
		sampleEvery = 0
	}
	obs := r.Observations()
	c := &Curve{SampleEvery: float64(sampleEvery)}
	if len(obs) == 0 {
		return c
	}
	end := obs[len(obs)-1].End
	c.End = float64(end)
	for _, o := range obs {
		c.FinalBlocks++
		c.FinalPairs += o.Compared
		c.FinalDups += o.Dups
	}

	if c.SampleEvery <= 0 {
		c.SampleEvery = c.End / 64
	}
	c.SampleEvery = max(c.SampleEvery, c.End/maxCurvePoints)
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}

	// Sample the cumulative counts at k·Δ for k = 1, 2, …, closing with
	// a final sample exactly at End. Cost is strictly increasing by
	// construction; the cumulative counts make Recall non-decreasing.
	var (
		i                   int
		blocks, pairs, dups int64
	)
	advance := func(t float64) {
		for i < len(obs) && float64(obs[i].End) <= t {
			blocks++
			pairs += obs[i].Compared
			dups += obs[i].Dups
			i++
		}
	}
	sample := func(t float64) {
		advance(t)
		p := CurvePoint{Cost: t, Blocks: blocks, Pairs: pairs, Dups: dups}
		if c.FinalDups > 0 {
			p.Recall = float64(dups) / float64(c.FinalDups)
		}
		c.Points = append(c.Points, p)
	}
	for t := c.SampleEvery; t < c.End; t += c.SampleEvery {
		sample(t)
	}
	sample(c.End)

	c.AUC = recallAUC(obs, c.End, c.FinalDups)
	return c
}

// recallAUC integrates the recall step function exactly over [0, end]:
// recall is constant between completion events, so the area is the sum
// of recall-after-event × time-to-next-event.
func recallAUC(obs []BlockObs, end float64, finalDups int64) float64 {
	if end <= 0 || finalDups == 0 {
		return 0
	}
	var area float64
	var dups int64
	for i := 0; i < len(obs); {
		t := obs[i].End
		for i < len(obs) && obs[i].End == t {
			dups += obs[i].Dups
			i++
		}
		next := end
		if i < len(obs) {
			next = float64(obs[i].End)
		}
		area += float64(dups) / float64(finalDups) * (next - float64(t))
	}
	return area / end
}
