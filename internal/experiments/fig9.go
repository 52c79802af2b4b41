package experiments

import (
	"fmt"

	"proger/internal/sched"
)

// fig9 is the tree-scheduler experiment (§VI-B2): our schedule
// generator vs NoSplit vs LPT on the publications workload, one
// sub-figure per machine count.
func fig9(c Config) (*Output, error) {
	w := PublicationsWorkload(c.Entities, c.Seed)
	out := &Output{}
	for _, mu := range c.Machines {
		var runs []*Run
		for _, s := range []struct {
			kind  sched.Kind
			label string
		}{{sched.LPT, "LPT"}, {sched.NoSplit, "NoSplit"}, {sched.Ours, "Our Algorithm"}} {
			r, err := w.RunOurs(mu, s.kind, s.label)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		out.Figures = append(out.Figures, NewFigure(
			fmt.Sprintf("Fig9-mu%d", mu),
			fmt.Sprintf("Tree schedulers, μ=%d", mu),
			c.GridPoints, runs...))
	}
	return out, nil
}
