package experiments

import (
	"proger/internal/obs/quality"
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
	inc := incremental.Curve
	traditional := &Run{Label: "Traditional", Curve: &quality.Curve{Total: inc.Total, End: inc.End}}
	if n := len(inc.Points); n > 0 {
		traditional.Curve.Points = []quality.Point{{Time: inc.End, Found: inc.Points[n-1].Found}}
	}

	ours, err := w.RunOurs(c.Machines[0], sched.Ours, "Progressive (ours)")
	if err != nil {
		return nil, err
	}
	return &Output{Figures: []*Figure{NewFigure("Fig1", "Progressive vs incremental vs traditional ER", c.GridPoints,
		traditional, incremental, ours)}}, nil
}
