// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), one testing.B target each, plus micro-benchmarks of
// the substrates the pipeline is built on. Figure benchmarks run the
// full experiment at a laptop-scale configuration and report the
// headline quality metric alongside ns/op, so `go test -bench=.`
// doubles as a reproduction run:
//
//	BenchmarkFig1     — progressive vs incremental vs traditional ER
//	BenchmarkFig8     — ours vs Basic (popcorn thresholds, w ∈ {5,15})
//	BenchmarkTable3   — final recall / total time per Basic threshold
//	BenchmarkFig9     — tree schedulers (ours vs NoSplit vs LPT)
//	BenchmarkFig10    — entities-per-machine sweep (books, PSNM)
//	BenchmarkFig11    — recall speedup vs machine count
//	BenchmarkAblation — mechanisms and components ablated
//
// Each runs its entry of experiments.Catalogue.
// Larger (paper-scale-shaped) runs: use cmd/experiments with -entities.
package proger_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"proger"
	"proger/internal/blocking"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/experiments"
	"proger/internal/mapreduce"
	"proger/internal/mechanism"
	"proger/internal/sched"
	"proger/internal/textsim"
)

// qtyOf computes the linear-decay Eq.-1 quality of a figure series, the
// scalar the figure benchmarks report.
func qtyOf(f *experiments.Figure, label string) float64 {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		q, prev := 0.0, 0.0
		k := len(f.Times)
		for i := range f.Times {
			q += float64(k-i) / float64(k) * (s.Recalls[i] - prev)
			prev = s.Recalls[i]
		}
		return q
	}
	return 0
}

// runExperiment runs the catalogue entry name with cfg b.N times and
// returns the last Output.
func runExperiment(b *testing.B, name string, cfg experiments.Config) *experiments.Output {
	var e *experiments.Experiment
	for i := range experiments.Catalogue {
		if experiments.Catalogue[i].Name == name {
			e = &experiments.Catalogue[i]
		}
	}
	if e == nil {
		b.Fatalf("no experiment %q in the catalogue", name)
	}
	var out *experiments.Output
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

func BenchmarkFig8(b *testing.B) {
	left := runExperiment(b, "fig8", experiments.Config{Entities: 2000, Seed: 81, Machines: []int{5}, GridPoints: 10}).Figures[0]
	b.ReportMetric(qtyOf(left, "Our Approach"), "qty-ours")
	b.ReportMetric(qtyOf(left, "Basic F"), "qty-basicF")
}

func BenchmarkTable3(b *testing.B) {
	out := runExperiment(b, "fig8", experiments.Config{Entities: 2000, Seed: 81, Machines: []int{5}, GridPoints: 8})
	if len(out.Tables[0].Rows) == 0 {
		b.Fatal("empty Table III")
	}
	b.ReportMetric(qtyOf(out.Figures[0], "Our Approach"), "qty-ours")
}

func BenchmarkFig9(b *testing.B) {
	fig := runExperiment(b, "fig9", experiments.Config{Entities: 1500, Seed: 9, Machines: []int{6}, GridPoints: 10}).Figures[0]
	b.ReportMetric(qtyOf(fig, "Our Algorithm"), "qty-ours")
	b.ReportMetric(qtyOf(fig, "LPT"), "qty-lpt")
}

func BenchmarkFig10(b *testing.B) {
	fig := runExperiment(b, "fig10", experiments.Config{Entities: 2500, Seed: 10, Machines: []int{4}, GridPoints: 10}).Figures[0]
	b.ReportMetric(qtyOf(fig, "Our Approach"), "qty-ours")
}

func BenchmarkFig11(b *testing.B) {
	table := runExperiment(b, "fig11", experiments.Config{Entities: 2000, Seed: 11, Machines: []int{4, 12}}).Tables[0]
	// The speedup of recall 0.6 at 12 machines: 0 when unreached.
	var speedup float64
	for _, row := range table.Rows {
		if row[0] == "0.6" {
			fmt.Sscan(row[2], &speedup)
		}
	}
	b.ReportMetric(speedup, "speedup@0.6")
}

// ---- Substrate micro-benchmarks ----

// BenchmarkLevenshtein times the exact distance on a title-sized pair
// (one 64-bit word) and on a 350-byte pair (the blocked path a
// truncated abstract takes).
func BenchmarkLevenshtein(b *testing.B) {
	a := "parallel progressive approach to entity resolution"
	c := "parralel progresive aproach to entity resolutoin"
	long := strings.Repeat(a+" ", 7)[:350]
	longTypos := strings.Repeat(c+" ", 8)[:350]
	for _, bc := range []struct{ name, x, y string }{
		{"50", a, c},
		{"350", long, longTypos},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				textsim.Levenshtein(bc.x, bc.y)
			}
		})
	}
}

func BenchmarkLevenshteinCapped(b *testing.B) {
	a := "parallel progressive approach to entity resolution"
	c := "completely different text about database systems!!"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		textsim.LevenshteinCapped(a, c, 5)
	}
}

func BenchmarkJaccardQ2(b *testing.B) {
	x := "parallel progressive approach to entity resolution"
	y := "a parallel and progressive approach for entity resolution"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		textsim.JaccardQGram(x, y, 2)
	}
}

func BenchmarkTokenCosine(b *testing.B) {
	x := "J Smith and A Doe and M Garcia-Lopez"
	y := "A Doe and J Smith and M Garcia Lopez"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		textsim.TokenCosine(x, y)
	}
}

func BenchmarkMatcher(b *testing.B) {
	ds, _, _ := workload(b, "publications", 100, 1)
	m := proger.MustMatcher(0.75,
		proger.Rule{Attr: 0, Weight: 0.5, Kind: proger.EditDistance},
		proger.Rule{Attr: 1, Weight: 0.3, Kind: proger.EditDistance, MaxChars: 350},
		proger.Rule{Attr: 2, Weight: 0.2, Kind: proger.EditDistance},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(ds.Entities[i%100], ds.Entities[(i+7)%100])
	}
}

// matchCase is one named pair of a matcher micro-benchmark.
type matchCase struct {
	name string
	x, y *entity.Entity
}

// benchMatch times m.Match on each case's pair; every matcher
// benchmark must read 0 allocs/op.
func benchMatch(b *testing.B, m *proger.Matcher, cases ...matchCase) {
	for _, bc := range cases {
		if bc.x == nil {
			b.Fatalf("workload has no %s pair", bc.name)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Match(bc.x, bc.y)
			}
		})
	}
}

// sortedBy returns the entities in order of one attribute: neighbours
// are the pairs a sorted-neighbourhood window compares.
func sortedBy(ds *entity.Dataset, attr int) []*entity.Entity {
	sorted := append([]*entity.Entity(nil), ds.Entities...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Attr(attr) < sorted[j].Attr(attr) })
	return sorted
}

// BenchmarkMatcherAbstracts times the publications matcher on the two
// kinds of pair a distance budget treats differently, both with
// abstracts that fill the 350-char cut: a duplicate, whose three
// distances are all computed, and a non-duplicate whose titles are
// neighbours in sort order, which a budget abandons inside the title.
func BenchmarkMatcherAbstracts(b *testing.B) {
	w := experiments.PublicationsWorkload(2000, 1)
	title, abstract := w.DS.Schema.Index("title"), w.DS.Schema.Index("abstract")
	full := func(e *entity.Entity) bool { return e.Attr(title) != "" && len(e.Attr(abstract)) >= 350 }
	dup, nonDup := matchCase{name: "dup"}, matchCase{name: "nondup"}
	for _, p := range w.GT.DupPairs() {
		if x, y := w.DS.Entities[p.Lo], w.DS.Entities[p.Hi]; full(x) && full(y) && w.Matcher.Match(x, y) {
			dup.x, dup.y = x, y
			break
		}
	}
	sorted := sortedBy(w.DS, title)
	for i := 0; i+1 < len(sorted); i++ {
		if x, y := sorted[i], sorted[i+1]; full(x) && full(y) && !w.GT.IsDup(entity.MakePair(x.ID, y.ID)) {
			nonDup.x, nonDup.y = x, y
			break
		}
	}
	benchMatch(b, w.Matcher, dup, nonDup)
}

// BenchmarkMatcherBooks times the books matcher (three edit rules, then
// five exact ones) on a duplicate and on two title-sorted neighbours
// that are not duplicates: one whose exact attributes all differ, which
// bounds alone reject, and the one with the most exact attributes in
// agreement, which needs a kernel.
func BenchmarkMatcherBooks(b *testing.B) {
	w := experiments.BooksWorkload(10000, 1)
	title := w.DS.Schema.Index("title")
	var exact []int
	for _, r := range w.Matcher.Rules {
		if r.Kind == proger.ExactMatch {
			exact = append(exact, r.Attr)
		}
	}
	dup := matchCase{name: "dup"}
	differ, agree := matchCase{name: "nondup-exact-differ"}, matchCase{name: "nondup-exact-agree"}
	for _, p := range w.GT.DupPairs() {
		if x, y := w.DS.Entities[p.Lo], w.DS.Entities[p.Hi]; x.Attr(title) != "" && y.Attr(title) != "" && w.Matcher.Match(x, y) {
			dup.x, dup.y = x, y
			break
		}
	}
	sorted, most := sortedBy(w.DS, title), 0
	for i := 0; i+1 < len(sorted); i++ {
		x, y := sorted[i], sorted[i+1]
		if x.Attr(title) == "" || w.GT.IsDup(entity.MakePair(x.ID, y.ID)) {
			continue
		}
		same := 0
		for _, a := range exact {
			if x.Attr(a) == y.Attr(a) {
				same++
			}
		}
		if same == 0 && differ.x == nil {
			differ.x, differ.y = x, y
		}
		if same > most {
			most, agree.x, agree.y = same, x, y
		}
	}
	benchMatch(b, w.Matcher, dup, differ, agree)
}

// BenchmarkMatcherPersons guards the exact-only matcher of the
// persons-exact workload: name-sorted neighbours that are not
// duplicates, settled by the first rule that differs.
func BenchmarkMatcherPersons(b *testing.B) {
	w, err := experiments.Generate("persons-exact", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, gt := w.DS, w.GT
	nonDup := matchCase{name: "nondup"}
	sorted := sortedBy(ds, ds.Schema.Index("name"))
	for i := 0; i+1 < len(sorted); i++ {
		if x, y := sorted[i], sorted[i+1]; !gt.IsDup(entity.MakePair(x.ID, y.ID)) {
			nonDup.x, nonDup.y = x, y
			break
		}
	}
	benchMatch(b, w.Matcher, nonDup)
}

func BenchmarkDatagenPublications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		datagen.Publications(datagen.DefaultPublications(2000, int64(i)))
	}
}

func BenchmarkJob1(b *testing.B) {
	ds, _, _ := workload(b, "publications", 2000, 3)
	fams := blocking.CiteSeerXFamilies(ds.Schema)
	cluster := mapreduce.Cluster{Machines: 5, SlotsPerMachine: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := blocking.RunJob1(ds, fams, cluster, costmodel.Default(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleGeneration(b *testing.B) {
	ds, gt, _ := workload(b, "publications", 2000, 3)
	fams := blocking.CiteSeerXFamilies(ds.Schema)
	model := estimate.Train(ds, gt, fams)
	cluster := mapreduce.Cluster{Machines: 5, SlotsPerMachine: 2}
	stats, _, err := blocking.RunJob1(ds, fams, cluster, costmodel.Default(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees, err := stats.BuildForests(fams)
		if err != nil {
			b.Fatal(err)
		}
		trees = estimate.Prune(trees)
		est := estimate.NewEstimator(estimate.CiteSeerXPolicy(), costmodel.Default(), model, ds.Len())
		for _, t := range trees {
			est.EstimateTree(t)
		}
		cv := sched.AutoCostVector(trees, 10, sched.CostPoints)
		if _, err := sched.Generate(trees, sched.Config{
			R: 10, CostVector: cv, Weights: sched.LinearWeights(len(cv)), Batch: sched.SplitBatch, Estimator: est,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolvePipeline(b *testing.B) {
	ds, gt, _ := workload(b, "publications", 1500, 5)
	fams := proger.CiteSeerXFamilies(ds.Schema)
	model := proger.TrainDupModel(ds, gt, fams)
	matcher := proger.MustMatcher(0.75,
		proger.Rule{Attr: 0, Weight: 0.5, Kind: proger.EditDistance},
		proger.Rule{Attr: 1, Weight: 0.3, Kind: proger.EditDistance, MaxChars: 350},
		proger.Rule{Attr: 2, Weight: 0.2, Kind: proger.EditDistance},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proger.Resolve(ds, proger.Options{
			Families: fams, Matcher: matcher, Mechanism: proger.SN,
			Policy: proger.CiteSeerXPolicy(), DupModel: model,
			Machines: 5, SlotsPerMachine: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveBasic(b *testing.B) {
	ds, _, _ := workload(b, "publications", 1500, 5)
	fams := proger.CiteSeerXFamilies(ds.Schema)
	matcher := proger.MustMatcher(0.75,
		proger.Rule{Attr: 0, Weight: 0.5, Kind: proger.EditDistance},
		proger.Rule{Attr: 1, Weight: 0.3, Kind: proger.EditDistance, MaxChars: 350},
		proger.Rule{Attr: 2, Weight: 0.2, Kind: proger.EditDistance},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proger.ResolveBasic(ds, proger.BasicOptions{
			Families: fams, Matcher: matcher, Mechanism: proger.SN,
			Window: 15, PopcornThreshold: -1, Machines: 5, SlotsPerMachine: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	fig := runExperiment(b, "fig1", experiments.Config{Entities: 1500, Seed: 1, Machines: []int{5}, GridPoints: 10}).Figures[0]
	b.ReportMetric(qtyOf(fig, "Progressive (ours)"), "qty-progressive")
}

func BenchmarkMechanismSN(b *testing.B) {
	benchmarkMechanism(b, proger.SN)
}

func BenchmarkMechanismPSNM(b *testing.B) {
	benchmarkMechanism(b, proger.PSNM)
}

func BenchmarkMechanismHierarchy(b *testing.B) {
	benchmarkMechanism(b, proger.HierarchyHint)
}

// benchmarkMechanism resolves one 200-entity block to exhaustion.
func benchmarkMechanism(b *testing.B, m proger.Mechanism) {
	ds, _, _ := workload(b, "publications", 200, 2)
	matcher := proger.MustMatcher(0.75,
		proger.Rule{Attr: 0, Weight: 0.6, Kind: proger.EditDistance},
		proger.Rule{Attr: 2, Weight: 0.4, Kind: proger.EditDistance},
	)
	env := &mechanism.Env{
		SortAttr: 0,
		Match:    matcher.Match,
		Emit:     func(entity.Pair, bool) {},
		Charge:   func(costmodel.Units) {},
		Cost:     costmodel.Default(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResolveBlock(env, ds.Entities, 15)
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	ds, gt, _ := workload(b, "publications", 5000, 3)
	pairs := proger.PairSet{}
	for _, p := range gt.DupPairs() {
		pairs.Add(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proger.TransitiveClosure(ds.Len(), pairs)
	}
}

func BenchmarkAblation(b *testing.B) {
	components := runExperiment(b, "ablation", experiments.Config{Entities: 1200, Seed: 42, Machines: []int{4}, GridPoints: 8}).Figures[1]
	b.ReportMetric(qtyOf(components, "Full approach"), "qty-full")
}
