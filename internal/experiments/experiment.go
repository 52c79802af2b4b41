// Package experiments regenerates every table and figure of the
// paper's evaluation (§VI): Fig. 1 (the concept figure), Fig. 8 +
// Table III (comparison with Basic), Fig. 9 (tree schedulers), Fig. 10
// (entities per machine), Fig. 11 (recall speedup), plus design-choice
// ablations. Each is one entry of Catalogue, run with one Config, and
// makes plot-ready figures (recall vs simulated cost) and tables with
// the rows the paper reports. Scale is configurable; the defaults are
// sized for laptop runs and the shapes — who wins, by what factor,
// where the crossovers fall — are what reproduce the paper, not
// absolute values (the substrate is a simulator; see DESIGN.md). The
// workloads they run are the workload catalogue's (Generate), which
// the CLI, the profiler and the tests read too.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Config scales an experiment. A zero field takes the experiment's
// Defaults; an experiment that runs on one cluster uses the first
// machine count.
type Config struct {
	Entities   int
	Seed       int64
	Machines   []int
	GridPoints int
}

// or is c with each zero field taken from d.
func (c Config) or(d Config) Config {
	if c.Entities <= 0 {
		c.Entities = d.Entities
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.Machines) == 0 {
		c.Machines = d.Machines
	}
	if c.GridPoints <= 0 {
		c.GridPoints = d.GridPoints
	}
	return c
}

// Output is what an experiment makes: its figures, then its tables, in
// the order they print.
type Output struct {
	Figures []*Figure
	Tables  []*Table
}

// An Experiment is one entry of the catalogue.
type Experiment struct {
	// Name is the cmd/experiments command that prints the experiment.
	Name string
	// TableName, when set, is the command that prints the tables only;
	// Name then prints the figures only.
	TableName string
	Defaults  Config
	run       func(Config) (*Output, error)
}

// Catalogue is every experiment, in the order `experiments all` prints
// them.
var Catalogue = []Experiment{
	{Name: "fig1", Defaults: Config{Entities: 4000, Seed: 1, Machines: []int{10}, GridPoints: 16}, run: fig1},
	{Name: "fig8", TableName: "table3", Defaults: Config{Entities: 4000, Seed: 8, Machines: []int{10}, GridPoints: 16}, run: fig8},
	{Name: "fig9", Defaults: Config{Entities: 8000, Seed: 9, Machines: []int{10, 15, 20}, GridPoints: 24}, run: fig9},
	{Name: "fig10", Defaults: Config{Entities: 6000, Seed: 10, Machines: []int{20, 10, 5}, GridPoints: 16}, run: fig10},
	{Name: "fig11", Defaults: Config{Entities: 6000, Seed: 11, Machines: []int{5, 10, 15, 20, 25}}, run: fig11},
	{Name: "ablation", Defaults: Config{Entities: 4000, Seed: 42, Machines: []int{10}, GridPoints: 16}, run: ablation},
}

// Run runs the experiment with cfg, its zero fields taken from
// e.Defaults.
func (e *Experiment) Run(cfg Config) (*Output, error) { return e.run(cfg.or(e.Defaults)) }

// Prints reports which parts of e's Output the command cmd prints:
// both for "all", the figures (and the tables, unless they have a
// TableName) for e.Name, the tables for e.TableName.
func (e *Experiment) Prints(cmd string) (figures, tables bool) {
	switch {
	case cmd == "all":
		return true, true
	case cmd == e.Name:
		return true, e.TableName == ""
	case cmd == e.TableName && cmd != "":
		return false, true
	}
	return false, false
}

// Write prints o to w, each figure as a data table, as an ASCII chart
// when plot is set, or as a JSON document when asJSON is set, and each
// table as text or as a JSON document.
func (o *Output) Write(w io.Writer, plot, asJSON bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	for _, f := range o.Figures {
		var err error
		switch {
		case asJSON:
			err = enc.Encode(f)
		case plot:
			_, err = fmt.Fprintln(w, f.Plot(64, 16))
		default:
			_, err = fmt.Fprintln(w, f.Render())
		}
		if err != nil {
			return err
		}
	}
	for _, t := range o.Tables {
		var err error
		if asJSON {
			err = enc.Encode(t)
		} else {
			_, err = fmt.Fprintln(w, t.Render())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
