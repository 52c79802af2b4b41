package experiments

import (
	"fmt"

	"proger/internal/sched"
)

// fig10Thresholds are the Basic popcorn thresholds of Fig. 10.
var fig10Thresholds = []float64{0.0005, 0.005, 0.05}

// fig10 is the entities-per-machine experiment (§VI-B3): our approach
// vs Basic on the books workload with PSNM, at a fixed dataset size
// and one sub-figure per machine count — so with the default counts
// {20, 10, 5} θ = |D|/μ grows left to right, as in the paper (30M/20,
// 30M/10, 30M/5).
func fig10(c Config) (*Output, error) {
	w := BooksWorkload(c.Entities, c.Seed)
	out := &Output{}
	for _, mu := range c.Machines {
		ours, err := w.RunOurs(mu, sched.Ours, "Our Approach")
		if err != nil {
			return nil, err
		}
		runs := []*Run{ours}
		for _, th := range fig10Thresholds {
			r, err := w.RunBasic(mu, 15, th, thresholdLabel(th))
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		theta := c.Entities / mu
		out.Figures = append(out.Figures, NewFigure(
			fmt.Sprintf("Fig10-theta%d", theta),
			fmt.Sprintf("θ = %d entities / %d machines = %d", c.Entities, mu, theta),
			c.GridPoints, runs...))
	}
	return out, nil
}
