package quality

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"

	"proger/internal/costmodel"
)

// maxSamples caps a sampling: an interval shorter than
// End/maxSamples is raised to it, so a sampling holds at most
// maxSamples+1 points (the last at End) whatever the caller asks.
const maxSamples = 1 << 16

// SamplePoint is one sample of the progressive-recall curve.
type SamplePoint struct {
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

// Samples is the recall curve of the recorded block resolutions as the
// export writes it: cumulative resolution progress sampled every
// SampleEvery cost units on the global simulated clock, plus the
// curve's AUC.
type Samples struct {
	// SampleEvery is the sampling interval actually used.
	SampleEvery float64 `json:"sample_every"`
	// End is the completion time of the last block resolution.
	End float64 `json:"end"`
	// FinalBlocks, FinalPairs, and FinalDups are the run totals.
	FinalBlocks int64 `json:"final_blocks"`
	FinalPairs  int64 `json:"final_pairs"`
	FinalDups   int64 `json:"final_dups"`
	// AUC is the curve's Curve.AUC: the exact area under recall(t) over
	// [0, End], normalized by End — in [0, 1], 1 meaning every
	// duplicate surfaced immediately (perfect progressiveness),
	// computed from the un-sampled curve rather than the Points grid.
	AUC float64 `json:"auc"`
	// Points are the samples, at strictly increasing cost.
	Points []SamplePoint `json:"points"`
}

// Export is the -quality-out document: the sampled progressive-recall
// curve plus the calibration report.
type Export struct {
	Curve       *Samples `json:"curve"`
	Calibration *Report  `json:"calibration"`
}

// Export derives both artifacts from the recorder's current state.
// Returns nil for a nil (disabled) recorder.
func (r *Recorder) Export(sampleEvery costmodel.Units) *Export {
	if r == nil {
		return nil
	}
	return &Export{Curve: r.Samples(sampleEvery), Calibration: r.BuildReport()}
}

// Samples samples the recall curve of the recorded block realizations,
// which has a step at every block's completion time. sampleEvery ≤ 0,
// NaN or infinite picks End/64, and one below End/maxSamples is raised
// to it. Each block's progress is attributed to its completion time —
// exact on the simulated clock, since the engine replays block
// resolutions with deterministic timestamps (sampling "during" and
// "after" the run are the same operation when time is simulated; see
// DESIGN.md §10).
func (r *Recorder) Samples(sampleEvery costmodel.Units) *Samples {
	if math.IsNaN(sampleEvery) || math.IsInf(sampleEvery, 0) {
		sampleEvery = 0
	}
	obs := r.Observations()
	s := &Samples{SampleEvery: float64(sampleEvery)}
	if len(obs) == 0 {
		return s
	}
	curve := observedCurve(obs)
	s.End = curve.End
	s.FinalBlocks = int64(len(obs))
	s.FinalDups = curve.Total

	if s.SampleEvery <= 0 {
		s.SampleEvery = s.End / 64
	}
	s.SampleEvery = max(s.SampleEvery, s.End/maxSamples)
	if s.SampleEvery <= 0 {
		s.SampleEvery = 1
	}

	// Sample the cumulative counts at k·Δ for k = 1, 2, …, closing with
	// a final sample exactly at End. Cost is strictly increasing by
	// construction; the cumulative counts make Recall non-decreasing.
	var (
		i     int
		pairs int64
	)
	sample := func(t float64) {
		for ; i < len(obs) && obs[i].End <= t; i++ {
			pairs += obs[i].Compared
		}
		s.Points = append(s.Points, SamplePoint{Cost: t, Blocks: int64(i), Pairs: pairs, Dups: curve.foundAt(t), Recall: curve.RecallAt(t)})
	}
	for t := s.SampleEvery; t < s.End; t += s.SampleEvery {
		sample(t)
	}
	sample(s.End)

	s.FinalPairs, s.AUC = pairs, curve.AUC()
	return s
}

// WriteJSON writes the export as indented JSON. encoding/json renders
// floats with the shortest round-trip representation and struct fields
// in declaration order, so output is byte-deterministic for
// deterministic inputs.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteCSV writes the samples as CSV (header + one row per point), the
// plot-tool-friendly alternative to WriteJSON. Floats use the shortest
// round-trip formatting, so output is byte-deterministic.
func (s *Samples) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("cost,blocks,pairs,dups,recall\n"); err != nil {
		return err
	}
	for _, p := range s.Points {
		bw.WriteString(strconv.FormatFloat(p.Cost, 'g', -1, 64))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(p.Blocks, 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(p.Pairs, 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(p.Dups, 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatFloat(p.Recall, 'g', -1, 64))
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
