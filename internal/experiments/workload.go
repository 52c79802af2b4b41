package experiments

import (
	"fmt"
	"slices"
	"strings"

	"proger/internal/blocking"
	"proger/internal/core"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/obs/quality"
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

// recipe is one generated workload's configuration (§VI-A): its
// generator, whether that generator ignores n and seed (a dataset of
// fixed size), blocking families, match rules over named attributes,
// mechanism and per-level policy, and whether a duplicate model is
// trained for it.
type recipe struct {
	generate  func(n int, seed int64) (*entity.Dataset, *datagen.GroundTruth)
	fixed     bool
	families  func(*entity.Schema) blocking.Families
	threshold float64
	rules     []rule
	mech      mechanism.Mechanism
	policy    estimate.Policy
	trained   bool
}

// rule is a match.Rule on an attribute named in the dataset's schema.
type rule struct {
	attr     string
	weight   float64
	kind     match.SimKind
	maxChars int
}

// workloads is every generated workload, by the name `proger -generate`
// takes: the one place a workload is written down.
var workloads = map[string]recipe{
	// CiteSeerX-like: SN with the Whang et al. hint, the Table-II
	// families, the CiteSeerX policy (§VI-A2..A5).
	"publications": {
		generate: func(n int, seed int64) (*entity.Dataset, *datagen.GroundTruth) {
			return datagen.Publications(datagen.DefaultPublications(n, seed))
		},
		families:  blocking.CiteSeerXFamilies,
		threshold: 0.75,
		rules:     []rule{{"title", 0.5, match.EditDistance, 0}, {"abstract", 0.3, match.EditDistance, 350}, {"venue", 0.2, match.EditDistance, 0}},
		mech:      mechanism.SN{}, policy: estimate.CiteSeerXPolicy(), trained: true,
	},
	// OL-Books-like: PSNM, the Table-II families, the OL-Books policy.
	"books": {
		generate: func(n int, seed int64) (*entity.Dataset, *datagen.GroundTruth) {
			return datagen.Books(datagen.DefaultBooks(n, seed))
		},
		families:  blocking.OLBooksFamilies,
		threshold: 0.62,
		rules: []rule{{"title", 0.35, match.EditDistance, 0}, {"authors", 0.25, match.EditDistance, 0}, {"publisher", 0.10, match.EditDistance, 0},
			{"year", 0.08, match.ExactMatch, 0}, {"language", 0.06, match.ExactMatch, 0}, {"format", 0.05, match.ExactMatch, 0},
			{"pages", 0.05, match.ExactMatch, 0}, {"edition", 0.06, match.ExactMatch, 0}},
		mech: mechanism.PSNM{}, policy: estimate.OLBooksPolicy(), trained: true,
	},
	// The paper's Table-I toy: nine records, whatever n and seed say.
	"people": {
		generate: func(int, int64) (*entity.Dataset, *datagen.GroundTruth) { return datagen.People() },
		fixed:    true,
		families: func(s *entity.Schema) blocking.Families {
			return blocking.Families{
				{Name: "X", Attr: s.Index("name"), PrefixLens: []int{2, 3, 5}, Index: 1},
				{Name: "Y", Attr: s.Index("state"), PrefixLens: []int{2}, Index: 2},
			}
		},
		threshold: 0.75,
		rules:     []rule{{"name", 0.8, match.EditDistance, 0}, {"state", 0.2, match.EditDistance, 0}},
		mech:      mechanism.SN{}, policy: estimate.CiteSeerXPolicy(),
	},
	// Person records under Soundex + city + state blocking.
	"persons": {
		generate: personRecords, families: personFamilies, threshold: 0.78,
		rules: []rule{{"name", 0.55, match.EditDistance, 0}, {"city", 0.20, match.EditDistance, 0},
			{"state", 0.10, match.ExactMatch, 0}, {"phone", 0.15, match.ExactMatch, 0}},
		mech: mechanism.SN{}, policy: estimate.CiteSeerXPolicy(),
	},
	// The benchmark's persons: the same records and blocking, compared
	// exactly, so no similarity kernel runs.
	"persons-exact": {
		generate: personRecords, families: personFamilies, threshold: 0.6,
		rules: []rule{{"phone", 0.6, match.ExactMatch, 0}, {"state", 0.4, match.ExactMatch, 0}},
		mech:  mechanism.SN{}, policy: estimate.CiteSeerXPolicy(),
	},
}

func personRecords(n int, seed int64) (*entity.Dataset, *datagen.GroundTruth) {
	return datagen.PersonRecords(datagen.DefaultPeople(n, seed))
}

func personFamilies(s *entity.Schema) blocking.Families {
	return blocking.Families{
		{Name: "S", Attr: s.Index("name"), PrefixLens: []int{1, 2, 4}, Index: 1, Kind: blocking.KeySoundex},
		{Name: "C", Attr: s.Index("city"), PrefixLens: []int{3, 5}, Index: 2},
		{Name: "T", Attr: s.Index("state"), PrefixLens: []int{2}, Index: 3},
	}
}

// Names lists the catalogue's workloads in sorted order.
func Names() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// FixedSize reports whether the catalogue workload name is a dataset of
// fixed size, which Generate builds whatever n and seed it is given.
func FixedSize(name string) bool { return workloads[name].fixed }

// Generate builds the catalogue workload name on about n entities from
// seed: everything but the duplicate model, which Train adds.
func Generate(name string, n int, seed int64) (*Workload, error) {
	r, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
	ds, gt := r.generate(n, seed)
	rules := make([]match.Rule, len(r.rules))
	for i, x := range r.rules {
		rules[i] = match.Rule{Attr: ds.Schema.Index(x.attr), Weight: x.weight, Kind: x.kind, MaxChars: x.maxChars}
	}
	w := &Workload{Name: name, DS: ds, GT: gt, Fams: r.families(ds.Schema), Mech: r.mech, Policy: r.policy}
	w.Matcher = match.MustNew(r.threshold, rules...)
	return w, nil
}

// Train sets the duplicate model of a workload generated on n entities
// from seed, for its current families: a model trained on a disjoint
// sample of n/4 entities (at least 500) generated from seed + 100000
// (§VI-A4). A workload the catalogue trains no model for keeps a nil
// Model (the analytic default).
func (w *Workload) Train(n int, seed int64) {
	r := workloads[w.Name]
	if !r.trained {
		return
	}
	trainDS, trainGT := r.generate(max(n/4, 500), seed+100000)
	w.Model = estimate.Train(trainDS, trainGT, w.Fams)
}

// trained is Generate, then Train, of a name the catalogue holds.
func trained(name string, n int, seed int64) *Workload {
	w, err := Generate(name, n, seed)
	if err != nil {
		panic(err)
	}
	w.Train(n, seed)
	return w
}

// PublicationsWorkload is the catalogue's publications workload, trained.
func PublicationsWorkload(n int, seed int64) *Workload { return trained("publications", n, seed) }

// BooksWorkload is the catalogue's books workload, trained.
func BooksWorkload(n int, seed int64) *Workload { return trained("books", n, seed) }

// Run is one resolved configuration: its recall curve (against ground
// truth) and identifiers.
type Run struct {
	Label string
	Curve *quality.Curve
}

// Options is the paper's pipeline on the workload: its families,
// matcher, mechanism, policy and duplicate model, with the tree
// scheduler kind, on machines machines of two slots each (§VI-A).
func (w *Workload) Options(machines int, kind sched.Kind) core.Options {
	return core.Options{
		Families:        w.Fams,
		Matcher:         w.Matcher,
		Mechanism:       w.Mech,
		Policy:          w.Policy,
		DupModel:        w.Model,
		Machines:        machines,
		SlotsPerMachine: 2,
		Scheduler:       kind,
	}
}

// BasicOptions is the Basic baseline on the workload with SN window
// and popcorn threshold (negative = Basic F), on machines machines of
// two slots each.
func (w *Workload) BasicOptions(machines, window int, threshold float64) core.BasicOptions {
	return core.BasicOptions{
		Families:         w.Fams,
		Matcher:          w.Matcher,
		Mechanism:        w.Mech,
		Window:           window,
		PopcornThreshold: threshold,
		Machines:         machines,
		SlotsPerMachine:  2,
	}
}

// RunOurs executes the paper's approach on μ machines with the given
// tree scheduler.
func (w *Workload) RunOurs(machines int, kind sched.Kind, label string) (*Run, error) {
	res, err := core.Resolve(w.DS, w.Options(machines, kind))
	return w.newRun(label, res, err)
}

// RunBasic executes the Basic baseline with window w and popcorn
// threshold (negative = Basic F).
func (w *Workload) RunBasic(machines, window int, threshold float64, label string) (*Run, error) {
	res, err := core.ResolveBasic(w.DS, w.BasicOptions(machines, window, threshold))
	return w.newRun(label, res, err)
}

// newRun is the recall curve of a resolution of the workload, against
// its ground truth.
func (w *Workload) newRun(label string, res *core.Result, err error) (*Run, error) {
	if err != nil {
		return nil, err
	}
	curve := quality.BuildCurve(res.EventsAgainst(w.GT.IsDup), w.GT.NumDupPairs(), res.TotalTime)
	return &Run{Label: label, Curve: curve}, nil
}
