package proger_test

import (
	"fmt"

	"proger"
)

// tableI is the paper's Table-I toy dataset: nine people records, six
// real-world people. Its size is fixed, so n and seed are 0.
func tableI() (*proger.Dataset, *proger.GroundTruth) {
	ds, gt, _, err := proger.Workload("people", 0, 0)
	if err != nil {
		panic(err)
	}
	return ds, gt
}

// ExampleResolve runs the full parallel progressive pipeline on the
// paper's Table-I toy dataset and prints the identified duplicates. The
// blocking is the paper's running example: X keys on name prefixes (2,
// then 3, then 5 characters) and dominates Y, which keys on the state;
// the resolve function is a weighted edit similarity on both.
func ExampleResolve() {
	ds, _ := tableI()
	res, err := proger.Resolve(ds, proger.Options{
		Families: proger.Families{
			{Name: "X", Attr: 0, PrefixLens: []int{2, 3, 5}, Index: 1},
			{Name: "Y", Attr: 1, PrefixLens: []int{2}, Index: 2},
		},
		Matcher: proger.MustMatcher(0.75,
			proger.Rule{Attr: 0, Weight: 0.8, Kind: proger.EditDistance},
			proger.Rule{Attr: 1, Weight: 0.2, Kind: proger.EditDistance},
		),
		Mechanism:       proger.SN,
		Policy:          proger.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, p := range res.Duplicates.Sorted() {
		fmt.Println(p)
	}
	// Output:
	// <e0,e1>
	// <e0,e2>
	// <e1,e2>
	// <e3,e4>
}

// ExampleResolveBasic runs the §II-C Basic baseline with the popcorn
// stopping scheme disabled (Basic F).
func ExampleResolveBasic() {
	ds, gt := tableI()
	res, err := proger.ResolveBasic(ds, proger.BasicOptions{
		Families: proger.Families{
			{Name: "X", Attr: 0, PrefixLens: []int{2}, Index: 1},
			{Name: "Y", Attr: 1, PrefixLens: []int{2}, Index: 2},
		},
		Matcher: proger.MustMatcher(0.75,
			proger.Rule{Attr: 0, Weight: 0.8, Kind: proger.EditDistance},
			proger.Rule{Attr: 1, Weight: 0.2, Kind: proger.EditDistance},
		),
		Mechanism:        proger.SN,
		Window:           15,
		PopcornThreshold: -1,
		Machines:         2,
		SlotsPerMachine:  2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("found %d of %d true pairs\n", len(res.Duplicates), gt.NumDupPairs())
	// Output:
	// found 4 of 4 true pairs
}

// ExampleTransitiveClosure groups resolved pairs into entity clusters.
func ExampleTransitiveClosure() {
	pairs := proger.PairSet{}
	pairs.Add(proger.MakePair(0, 1))
	pairs.Add(proger.MakePair(1, 2))
	pairs.Add(proger.MakePair(4, 5))
	for _, cluster := range proger.TransitiveClosure(6, pairs) {
		fmt.Println(cluster)
	}
	// Output:
	// [0 1 2]
	// [3]
	// [4 5]
}

// ExampleCurve_RecallAt is the use case of the paper's introduction: a
// run stopped at a cost budget keeps the duplicates it has found. The
// progressive pipeline writes every duplicate out when it finds it, so
// the recall curve read at a cutoff is what a run stopped there would
// have delivered.
func ExampleCurve_RecallAt() {
	ds, gt, opts, err := proger.Workload("publications", 6000, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opts.Machines = 8
	res, err := proger.Resolve(ds, opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)

	fmt.Printf("Full resolution: %.0f cost units for recall %.3f\n\n", res.TotalTime, curve.FinalRecall())
	fmt.Printf("%10s  %12s  %10s\n", "budget", "cost units", "recall")
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0} {
		cutoff := res.TotalTime * frac
		fmt.Printf("%9.0f%%  %12.0f  %10.3f\n", frac*100, cutoff, curve.RecallAt(cutoff))
	}

	const budget = 0.25
	cutoff := res.TotalTime * budget
	got := curve.RecallAt(cutoff)
	fmt.Printf("\nWith a %.0f%% budget you would stop at %.0f units having found %.1f%%\n",
		budget*100, cutoff, got*100)
	fmt.Printf("of all duplicates — %.1f%% of what the full run finds, for %.0f%% of its cost.\n",
		100*got/curve.FinalRecall(), budget*100)
	delivered := 0
	for _, ev := range res.Events {
		if ev.Time <= cutoff {
			delivered++
		}
	}
	fmt.Printf("Pairs already delivered at the cutoff: %d of %d.\n", delivered, len(res.Events))
	// Output:
	// Full resolution: 20974 cost units for recall 0.714
	//
	//     budget    cost units      recall
	//         5%          1049       0.000
	//        10%          2097       0.000
	//        20%          4195       0.527
	//        25%          5243       0.543
	//        30%          6292       0.548
	//        40%          8390       0.582
	//        50%         10487       0.622
	//        75%         15730       0.709
	//       100%         20974       0.714
	//
	// With a 25% budget you would stop at 5243 units having found 54.3%
	// of all duplicates — 76.0% of what the full run finds, for 25% of its cost.
	// Pairs already delivered at the cutoff: 1875 of 2469.
}

// ExampleWorkload resolves the catalogue's persons workload, whose
// dominating blocking family keys on the Soundex code of the name —
// robust to the spelling variation of person records — with city and
// state prefixes as safety nets (§II-A's case for several blocking
// functions), then the same workload under plain name-prefix blocking.
func ExampleWorkload() {
	ds, gt, opts, err := proger.Workload("persons", 6000, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("Dataset: %d person records, %d true duplicate pairs\n", ds.Len(), gt.NumDupPairs())
	opts.Machines = 6
	run := func(label string, fams proger.Families) *proger.Curve {
		opts.Families = fams
		res, err := proger.Resolve(ds, opts)
		if err != nil {
			panic(err)
		}
		m := proger.EvaluatePairs(res.Duplicates, gt.IsDup, gt.NumDupPairs())
		fmt.Printf("%-18s recall %.3f  precision %.3f  F1 %.3f  in %8.0f cost units\n",
			label, m.Recall, m.Precision, m.F1, res.TotalTime)
		return proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
	}
	idx := ds.Schema.Index
	phonetic := run("soundex blocking", opts.Families)
	prefix := run("prefix blocking", proger.Families{
		{Name: "N", Attr: idx("name"), PrefixLens: []int{2, 3, 5}, Index: 1},
		{Name: "C", Attr: idx("city"), PrefixLens: []int{3, 5}, Index: 2},
		{Name: "T", Attr: idx("state"), PrefixLens: []int{2}, Index: 3},
	})

	fmt.Println("\nRecall curves (shared grid):")
	end := max(phonetic.End, prefix.End)
	fmt.Printf("%14s  %10s  %10s\n", "cost units", "soundex", "prefix")
	for i := 1; i <= 12; i++ {
		at := end * proger.CostUnits(i) / 12
		fmt.Printf("%14.0f  %10.3f  %10.3f\n", at, phonetic.RecallAt(at), prefix.RecallAt(at))
	}
	// Output:
	// Dataset: 6003 person records, 3451 true duplicate pairs
	// soundex blocking   recall 0.334  precision 0.771  F1 0.466  in    32261 cost units
	// prefix blocking    recall 0.365  precision 0.786  F1 0.499  in    31738 cost units
	//
	// Recall curves (shared grid):
	//     cost units     soundex      prefix
	//           2688       0.110       0.089
	//           5377       0.177       0.203
	//           8065       0.192       0.244
	//          10754       0.214       0.273
	//          13442       0.235       0.297
	//          16130       0.259       0.313
	//          18819       0.282       0.327
	//          21507       0.294       0.336
	//          24195       0.305       0.347
	//          26884       0.322       0.355
	//          29572       0.332       0.361
	//          32261       0.334       0.365
}
