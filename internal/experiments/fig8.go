package experiments

import (
	"fmt"
)

// popcorn threshold sets, exactly as in Fig. 8 and Table III.
var (
	fig8LeftThresholds  = []float64{-1, 0.1, 0.07, 0.04, 0.01}
	fig8MidThresholds   = []float64{-1, 0.007, 0.004, 0.001, 0.00001}
	fig8RightThresholds = []float64{-1, 0.07, 0.01, 0.007}
	table3Thresholds    = []float64{0.1, 0.07, 0.04, 0.01, 0.007, 0.004, 0.001, 0.00001, -1}
)

func thresholdLabel(th float64) string {
	if th < 0 {
		return "Basic F"
	}
	return fmt.Sprintf("Basic %g", th)
}

// fig8 is the comparison with Basic on the publications workload
// (§VI-B1): the three sub-figures of Fig. 8 — w=15 with optimistic
// popcorn thresholds, w=15 with conservative ones, w=5 with the best
// four — and Table III.
func fig8(c Config) (*Output, error) {
	w := PublicationsWorkload(c.Entities, c.Seed)
	mu := c.Machines[0]
	ours, err := w.RunOurs(mu, 0, "Our Approach")
	if err != nil {
		return nil, err
	}

	// All Basic runs, keyed by (window, threshold); Table III needs the
	// full cross product, the sub-figures need subsets.
	type key struct {
		window int
		th     float64
	}
	runs := map[key]*Run{}
	runBasic := func(window int, th float64) (*Run, error) {
		k := key{window, th}
		if r, ok := runs[k]; ok {
			return r, nil
		}
		r, err := w.RunBasic(mu, window, th, thresholdLabel(th))
		if err != nil {
			return nil, err
		}
		runs[k] = r
		return r, nil
	}

	out := &Output{}
	for _, sub := range []struct {
		id, title string
		window    int
		ths       []float64
	}{
		{"Fig8-left", "Ours vs Basic, w=15, optimistic thresholds", 15, fig8LeftThresholds},
		{"Fig8-mid", "Ours vs Basic, w=15, conservative thresholds", 15, fig8MidThresholds},
		{"Fig8-right", "Ours vs Basic, w=5", 5, fig8RightThresholds},
	} {
		series := make([]*Run, 0, len(sub.ths)+1)
		for _, th := range sub.ths {
			r, err := runBasic(sub.window, th)
			if err != nil {
				return nil, err
			}
			series = append(series, r)
		}
		out.Figures = append(out.Figures, NewFigure(sub.id, sub.title, c.GridPoints, append(series, ours)...))
	}

	// Table III: final recall and total execution time per threshold,
	// for w=5 and w=15, plus our approach's summary row.
	table := &Table{
		ID:     "TableIII",
		Title:  "Final recall and total execution time for Basic",
		Header: []string{"Thresh.", "Recall w=5", "Recall w=15", "Time w=5", "Time w=15"},
	}
	row := func(name string, r5, r15 *Run) {
		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprintf("%.2f", r5.Curve.FinalRecall()),
			fmt.Sprintf("%.2f", r15.Curve.FinalRecall()),
			fmt.Sprintf("%.0f", r5.Curve.End),
			fmt.Sprintf("%.0f", r15.Curve.End),
		})
	}
	for _, th := range table3Thresholds {
		r5, err := runBasic(5, th)
		if err != nil {
			return nil, err
		}
		r15, err := runBasic(15, th)
		if err != nil {
			return nil, err
		}
		name := "F"
		if th >= 0 {
			name = fmt.Sprintf("%g", th)
		}
		row(name, r5, r15)
	}
	row("Ours", ours, ours)
	out.Tables = []*Table{table}
	return out, nil
}
