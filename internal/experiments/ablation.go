package experiments

import (
	"fmt"

	"proger/internal/core"
	"proger/internal/mechanism"
	"proger/internal/progress"
	"proger/internal/sched"
)

// AblationConfig scales the design-choice ablation studies that go
// beyond the paper's own evaluation: they quantify what each mechanism
// of the approach contributes on the same workload.
type AblationConfig struct {
	Entities   int
	Seed       int64
	Machines   int
	GridPoints int
}

func (c *AblationConfig) defaults() {
	if c.Entities <= 0 {
		c.Entities = 4000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Machines <= 0 {
		c.Machines = 10
	}
	if c.GridPoints <= 0 {
		c.GridPoints = 16
	}
}

// AblationResult carries the three ablation figures plus a summary
// table.
type AblationResult struct {
	// Mechanisms compares the pluggable mechanisms M (SN, PSNM,
	// hierarchy hint, R-Swoosh) inside the full pipeline.
	Mechanisms *Figure
	// Components compares the full approach against itself with
	// redundancy-free resolution disabled and with sub-blocking
	// disabled.
	Components *Figure
	// Summary tabulates final recall, total time, AUC, and comparison
	// counts per configuration.
	Summary *Table
}

// Ablation runs the design-choice studies on the publications workload.
func Ablation(cfg AblationConfig) (*AblationResult, error) {
	cfg.defaults()
	w := PublicationsWorkload(cfg.Entities, cfg.Seed)

	type variant struct {
		label  string
		mech   mechanism.Mechanism
		mutate func(*core.Options)
	}
	run := func(v variant) (*Run, int64, error) {
		opts := core.Options{
			Families:        w.Fams,
			Matcher:         w.Matcher,
			Mechanism:       v.mech,
			Policy:          w.Policy,
			DupModel:        w.Model,
			Machines:        cfg.Machines,
			SlotsPerMachine: 2,
			Scheduler:       sched.Ours,
		}
		if v.mutate != nil {
			v.mutate(&opts)
		}
		res, err := core.Resolve(w.DS, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("ablation %s: %w", v.label, err)
		}
		curve := progress.BuildCurve(res.EventsAgainst(w.GT.IsDup), w.GT.NumDupPairs(), res.TotalTime)
		return &Run{Label: v.label, Curve: curve, Total: res.TotalTime},
			res.Counters.Get(core.CounterJob2Compared), nil
	}

	out := &AblationResult{}
	summary := &Table{
		ID:     "Ablation",
		Title:  "Design-choice ablations (publications workload)",
		Header: []string{"Configuration", "Final recall", "Total time", "AUC", "Comparisons"},
	}
	addRow := func(r *Run, compared int64) {
		summary.Rows = append(summary.Rows, []string{
			r.Label,
			fmt.Sprintf("%.3f", r.Curve.FinalRecall()),
			fmt.Sprintf("%.0f", r.Total),
			fmt.Sprintf("%.3f", r.Curve.AUC()),
			fmt.Sprintf("%d", compared),
		})
	}

	// --- Mechanism ablation ---
	mechVariants := []variant{
		{label: "SN hint", mech: mechanism.SN{}},
		{label: "PSNM", mech: mechanism.PSNM{}},
		{label: "Hierarchy hint", mech: mechanism.Hierarchy{}},
		{label: "R-Swoosh", mech: mechanism.RSwoosh{}},
	}
	mechRuns := make([]*Run, 0, len(mechVariants))
	for _, v := range mechVariants {
		r, compared, err := run(v)
		if err != nil {
			return nil, err
		}
		mechRuns = append(mechRuns, r)
		addRow(r, compared)
	}
	out.Mechanisms = NewFigure("Ablation-mechanisms", "Progressive mechanisms M inside the pipeline", cfg.GridPoints, mechRuns...)

	// --- Component ablation ---
	compVariants := []variant{
		{label: "Full approach", mech: mechanism.SN{}},
		{label: "No dedup (§V off)", mech: mechanism.SN{}, mutate: func(o *core.Options) {
			o.DisableRedundancyElimination = true
		}},
		{label: "No sub-blocking", mech: mechanism.SN{}, mutate: func(o *core.Options) {
			o.DisableSubBlocking = true
		}},
	}
	compRuns := make([]*Run, 0, len(compVariants))
	for _, v := range compVariants {
		r, compared, err := run(v)
		if err != nil {
			return nil, err
		}
		compRuns = append(compRuns, r)
		addRow(r, compared)
	}
	out.Components = NewFigure("Ablation-components", "Redundancy elimination and progressive blocking ablated", cfg.GridPoints, compRuns...)
	out.Summary = summary
	return out, nil
}
