package experiments

import (
	"fmt"

	"proger/internal/core"
	"proger/internal/mechanism"
	"proger/internal/sched"
)

// ablation runs the design-choice studies that go beyond the paper's
// own evaluation, on the publications workload: they quantify what
// each mechanism of the approach contributes. Its figures compare the
// pluggable mechanisms M (SN, PSNM, hierarchy hint, R-Swoosh) inside
// the full pipeline, and the full approach against itself with
// redundancy-free resolution disabled and with sub-blocking disabled;
// its table holds final recall, total time, AUC and comparison counts
// per configuration.
func ablation(c Config) (*Output, error) {
	w := PublicationsWorkload(c.Entities, c.Seed)

	type variant struct {
		label  string
		mech   mechanism.Mechanism
		mutate func(*core.Options)
	}
	summary := &Table{
		ID:     "Ablation",
		Title:  "Design-choice ablations (publications workload)",
		Header: []string{"Configuration", "Final recall", "Total time", "AUC", "Comparisons"},
	}
	figure := func(id, title string, variants ...variant) (*Figure, error) {
		runs := make([]*Run, 0, len(variants))
		for _, v := range variants {
			opts := w.Options(c.Machines[0], sched.Ours)
			opts.Mechanism = v.mech
			if v.mutate != nil {
				v.mutate(&opts)
			}
			res, err := core.Resolve(w.DS, opts)
			r, err := w.newRun(v.label, res, err)
			if err != nil {
				return nil, fmt.Errorf("ablation %s: %w", v.label, err)
			}
			runs = append(runs, r)
			summary.Rows = append(summary.Rows, []string{
				r.Label,
				fmt.Sprintf("%.3f", r.Curve.FinalRecall()),
				fmt.Sprintf("%.0f", r.Curve.End),
				fmt.Sprintf("%.3f", r.Curve.AUC()),
				fmt.Sprintf("%d", res.Counters.Get(core.CounterJob2Compared)),
			})
		}
		return NewFigure(id, title, c.GridPoints, runs...), nil
	}

	mechanisms, err := figure("Ablation-mechanisms", "Progressive mechanisms M inside the pipeline",
		variant{label: "SN hint", mech: mechanism.SN{}},
		variant{label: "PSNM", mech: mechanism.PSNM{}},
		variant{label: "Hierarchy hint", mech: mechanism.Hierarchy{}},
		variant{label: "R-Swoosh", mech: mechanism.RSwoosh{}})
	if err != nil {
		return nil, err
	}
	components, err := figure("Ablation-components", "Redundancy elimination and progressive blocking ablated",
		variant{label: "Full approach", mech: mechanism.SN{}},
		variant{label: "No dedup (§V off)", mech: mechanism.SN{}, mutate: func(o *core.Options) {
			o.DisableRedundancyElimination = true
		}},
		variant{label: "No sub-blocking", mech: mechanism.SN{}, mutate: func(o *core.Options) {
			o.DisableSubBlocking = true
		}})
	if err != nil {
		return nil, err
	}
	return &Output{Figures: []*Figure{mechanisms, components}, Tables: []*Table{summary}}, nil
}
