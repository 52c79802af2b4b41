package experiments

import (
	"fmt"

	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// fig11Recalls are the recall levels (rows) of Fig. 11.
var fig11Recalls = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// fig11 is the recall-speedup experiment (§VI-B4): our approach on the
// books workload at each machine count. The speedup of recall level ρ
// at μ = x is time(first count reaches ρ) divided by time(μ = x
// reaches ρ); a level a run never reaches reads "—".
func fig11(c Config) (*Output, error) {
	w := BooksWorkload(c.Entities, c.Seed)
	curves := make([]*quality.Curve, len(c.Machines))
	for j, mu := range c.Machines {
		run, err := w.RunOurs(mu, sched.Ours, fmt.Sprintf("mu=%d", mu))
		if err != nil {
			return nil, err
		}
		curves[j] = run.Curve
	}
	table := &Table{
		ID:     "Fig11",
		Title:  fmt.Sprintf("Recall speedup relative to %d machines", c.Machines[0]),
		Header: []string{"Recall"},
	}
	for _, mu := range c.Machines {
		table.Header = append(table.Header, fmt.Sprintf("mu=%d", mu))
	}
	for _, rho := range fig11Recalls {
		row := []string{fmt.Sprintf("%.1f", rho)}
		for _, curve := range curves {
			if s, ok := quality.Speedup(curves[0], curve, rho); ok {
				row = append(row, fmt.Sprintf("%.2f", s))
			} else {
				row = append(row, "—")
			}
		}
		table.Rows = append(table.Rows, row)
	}
	return &Output{Tables: []*Table{table}}, nil
}
