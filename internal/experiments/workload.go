// Package experiments regenerates every table and figure of the
// paper's evaluation (§VI): Fig. 8 + Table III (comparison with Basic),
// Fig. 9 (tree schedulers), Fig. 10 (entities per machine), and
// Fig. 11 (recall speedup). Each experiment returns plot-ready series
// (recall vs simulated cost) and renders the same rows the paper
// reports. Scale is configurable; the defaults are sized for laptop
// runs and the shapes — who wins, by what factor, where the crossovers
// fall — are what reproduce the paper, not absolute values (the
// substrate is a simulator; see DESIGN.md).
package experiments

import (
	"proger/internal/blocking"
	"proger/internal/core"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/progress"
	"proger/internal/sched"
)

// Workload bundles a dataset with everything needed to resolve it.
type Workload struct {
	Name    string
	DS      *entity.Dataset
	GT      *datagen.GroundTruth
	Fams    blocking.Families
	Matcher *match.Matcher
	Mech    mechanism.Mechanism
	Policy  estimate.Policy
	Model   estimate.DupModel
}

// PublicationsWorkload builds the CiteSeerX-like workload: SN mechanism
// with the Whang et al. hint, CiteSeerX blocking functions and policy,
// and a duplicate model trained on a disjoint training sample
// (§VI-A2..A5).
func PublicationsWorkload(n int, seed int64) *Workload {
	ds, gt := datagen.Publications(datagen.DefaultPublications(n, seed))
	fams := blocking.CiteSeerXFamilies(ds.Schema)
	trainN := n / 4
	if trainN < 500 {
		trainN = 500
	}
	trainDS, trainGT := datagen.Publications(datagen.DefaultPublications(trainN, seed+100000))
	model := estimate.Train(trainDS, trainGT, blocking.CiteSeerXFamilies(trainDS.Schema))
	return &Workload{
		Name: "publications",
		DS:   ds,
		GT:   gt,
		Fams: fams,
		Matcher: match.MustNew(0.75,
			match.Rule{Attr: ds.Schema.Index("title"), Weight: 0.5, Kind: match.EditDistance},
			match.Rule{Attr: ds.Schema.Index("abstract"), Weight: 0.3, Kind: match.EditDistance, MaxChars: 350},
			match.Rule{Attr: ds.Schema.Index("venue"), Weight: 0.2, Kind: match.EditDistance},
		),
		Mech:   mechanism.SN{},
		Policy: estimate.CiteSeerXPolicy(),
		Model:  model,
	}
}

// BooksWorkload builds the OL-Books-like workload: PSNM mechanism,
// OL-Books blocking functions and policy, eight compared attributes
// (edit distance or exact matching, §VI-A2).
func BooksWorkload(n int, seed int64) *Workload {
	ds, gt := datagen.Books(datagen.DefaultBooks(n, seed))
	fams := blocking.OLBooksFamilies(ds.Schema)
	trainN := n / 4
	if trainN < 500 {
		trainN = 500
	}
	trainDS, trainGT := datagen.Books(datagen.DefaultBooks(trainN, seed+100000))
	model := estimate.Train(trainDS, trainGT, blocking.OLBooksFamilies(trainDS.Schema))
	idx := ds.Schema.Index
	return &Workload{
		Name: "books",
		DS:   ds,
		GT:   gt,
		Fams: fams,
		Matcher: match.MustNew(0.62,
			match.Rule{Attr: idx("title"), Weight: 0.35, Kind: match.EditDistance},
			match.Rule{Attr: idx("authors"), Weight: 0.25, Kind: match.EditDistance},
			match.Rule{Attr: idx("publisher"), Weight: 0.10, Kind: match.EditDistance},
			match.Rule{Attr: idx("year"), Weight: 0.08, Kind: match.ExactMatch},
			match.Rule{Attr: idx("language"), Weight: 0.06, Kind: match.ExactMatch},
			match.Rule{Attr: idx("format"), Weight: 0.05, Kind: match.ExactMatch},
			match.Rule{Attr: idx("pages"), Weight: 0.05, Kind: match.ExactMatch},
			match.Rule{Attr: idx("edition"), Weight: 0.06, Kind: match.ExactMatch},
		),
		Mech:   mechanism.PSNM{},
		Policy: estimate.OLBooksPolicy(),
		Model:  model,
	}
}

// Run is one resolved configuration: its recall curve (against ground
// truth) and identifiers.
type Run struct {
	Label string
	Curve *progress.Curve
	Total costmodel.Units
}

// RunOurs executes the paper's approach on μ machines with the given
// tree scheduler.
func (w *Workload) RunOurs(machines int, kind sched.Kind, label string) (*Run, error) {
	res, err := core.Resolve(w.DS, core.Options{
		Families:        w.Fams,
		Matcher:         w.Matcher,
		Mechanism:       w.Mech,
		Policy:          w.Policy,
		DupModel:        w.Model,
		Machines:        machines,
		SlotsPerMachine: 2,
		Scheduler:       kind,
	})
	if err != nil {
		return nil, err
	}
	curve := progress.BuildCurve(res.EventsAgainst(w.GT.IsDup), w.GT.NumDupPairs(), res.TotalTime)
	return &Run{Label: label, Curve: curve, Total: res.TotalTime}, nil
}

// RunBasic executes the Basic baseline with window w and popcorn
// threshold (negative = Basic F).
func (w *Workload) RunBasic(machines, window int, threshold float64, label string) (*Run, error) {
	res, err := core.ResolveBasic(w.DS, core.BasicOptions{
		Families:         w.Fams,
		Matcher:          w.Matcher,
		Mechanism:        w.Mech,
		Window:           window,
		PopcornThreshold: threshold,
		Machines:         machines,
		SlotsPerMachine:  2,
	})
	if err != nil {
		return nil, err
	}
	curve := progress.BuildCurve(res.EventsAgainst(w.GT.IsDup), w.GT.NumDupPairs(), res.TotalTime)
	return &Run{Label: label, Curve: curve, Total: res.TotalTime}, nil
}
