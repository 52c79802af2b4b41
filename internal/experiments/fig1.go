package experiments

import (
	"proger/internal/progress"
	"proger/internal/sched"
)

// fig1 reproduces the conceptual Fig. 1 with real runs: the quality of
// the cleaned data as a function of resolution cost for three approach
// types — traditional ER (results only at the very end), an
// incremental configuration (results stream out, but in an order blind
// to duplicates: the Basic F baseline), and progressive ER (this
// paper's approach).
func fig1(c Config) (*Output, error) {
	w := PublicationsWorkload(c.Entities, c.Seed)

	// Incremental: Basic F — every block resolved fully, results
	// written as they are found, but block order is oblivious to where
	// the duplicates are.
	incremental, err := w.RunBasic(c.Machines[0], 15, -1, "Incremental")
	if err != nil {
		return nil, err
	}

	// Traditional: the same computation, but results become visible
	// only when the whole job finishes — the curve is a single step to
	// the incremental run's final recall, at its completion time.
	totalDups := w.GT.NumDupPairs()
	burst := int64(incremental.Curve.FinalRecall() * float64(totalDups))
	events := make([]progress.Event, 0, burst)
	for _, pr := range w.GT.DupPairs() {
		if int64(len(events)) >= burst {
			break
		}
		events = append(events, progress.Event{Time: incremental.Total, Pair: pr, TrueDup: true})
	}
	traditional := &Run{
		Label: "Traditional",
		Curve: progress.BuildCurve(events, totalDups, incremental.Total),
		Total: incremental.Total,
	}

	ours, err := w.RunOurs(c.Machines[0], sched.Ours, "Progressive (ours)")
	if err != nil {
		return nil, err
	}
	return &Output{Figures: []*Figure{NewFigure("Fig1", "Progressive vs incremental vs traditional ER", c.GridPoints,
		traditional, incremental, ours)}}, nil
}
