package proger_test

import (
	"bytes"
	"testing"

	"proger"
)

// workload is proger.Workload of a name the catalogue holds.
func workload(tb testing.TB, name string, n int, seed int64) (*proger.Dataset, *proger.GroundTruth, proger.Options) {
	tb.Helper()
	ds, gt, opts, err := proger.Workload(name, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, gt, opts
}

func TestPublicAPIQuickstart(t *testing.T) {
	ds, gt, opts := workload(t, "people", 0, 0)
	opts.Machines = 2
	res, err := proger.Resolve(ds, opts)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if int64(len(res.Duplicates)) != gt.NumDupPairs() {
		t.Errorf("found %d duplicates, want %d", len(res.Duplicates), gt.NumDupPairs())
	}
	curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
	if curve.FinalRecall() != 1 {
		t.Errorf("final recall %v on the toy dataset", curve.FinalRecall())
	}
}

func TestPublicAPIGenerateAndTSV(t *testing.T) {
	ds, gt, _ := workload(t, "publications", 400, 7)
	if ds.Len() < 400 || gt.NumDupPairs() == 0 {
		t.Fatal("generator broken via facade")
	}
	if _, _, _, err := proger.Workload("citeseer", 400, 7); err == nil {
		t.Error("Workload read a name the catalogue does not hold")
	}
	var buf bytes.Buffer
	if err := proger.WriteTSV(&buf, ds); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	back, err := proger.ReadTSV(&buf)
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Errorf("round trip lost entities: %d vs %d", back.Len(), ds.Len())
	}
}

func TestPublicAPITrainedModelAndBasic(t *testing.T) {
	ds, gt, _ := workload(t, "books", 800, 9)
	fams := proger.OLBooksFamilies(ds.Schema)
	model := proger.TrainDupModel(ds, gt, fams)
	if model == nil {
		t.Fatal("TrainDupModel returned nil")
	}
	matcher := proger.MustMatcher(0.62,
		proger.Rule{Attr: ds.Schema.Index("title"), Weight: 0.5, Kind: proger.EditDistance},
		proger.Rule{Attr: ds.Schema.Index("authors"), Weight: 0.3, Kind: proger.EditDistance},
		proger.Rule{Attr: ds.Schema.Index("year"), Weight: 0.2, Kind: proger.ExactMatch},
	)
	res, err := proger.ResolveBasic(ds, proger.BasicOptions{
		Families:         fams,
		Matcher:          matcher,
		Mechanism:        proger.PSNM,
		Window:           10,
		PopcornThreshold: -1,
		Machines:         2,
		SlotsPerMachine:  2,
	})
	if err != nil {
		t.Fatalf("ResolveBasic: %v", err)
	}
	if len(res.Duplicates) == 0 {
		t.Error("no duplicates found via facade")
	}
}

func TestPublicAPIExtras(t *testing.T) {
	// Persons generator + Soundex blocking through the facade.
	ds, gt := proger.GeneratePersons(500, 3)
	if ds.Len() < 500 || gt.NumDupPairs() == 0 {
		t.Fatal("GeneratePersons broken")
	}
	fams, quals, err := proger.SuggestFamilies(ds, gt, []*proger.Family{
		{Name: "S", Attr: 0, PrefixLens: []int{1, 2, 4}, Kind: proger.KeySoundex},
		{Name: "C", Attr: 1, PrefixLens: []int{3}},
	}, 0)
	if err != nil || len(fams) != 2 || len(quals) != 2 {
		t.Fatalf("SuggestFamilies: %v (%d fams)", err, len(fams))
	}
	// Correlation clustering through the facade.
	pairs := proger.PairSet{}
	pairs.Add(proger.MakePair(0, 1))
	clusters := proger.CorrelationClustering(3, pairs, 1)
	if len(clusters) != 2 {
		t.Errorf("clusters = %v", clusters)
	}
	// Token cosine matcher.
	m := proger.MustMatcher(0.9, proger.Rule{Attr: 0, Weight: 1, Kind: proger.TokenCosine})
	a := ds.Get(0)
	if !m.Match(a, a) {
		t.Error("self-match under token cosine")
	}
	// R-Swoosh and hierarchy hint exist and are named.
	if proger.RSwoosh.Name() != "R-Swoosh" || proger.HierarchyHint.Name() != "HierarchyHint" {
		t.Error("mechanism facade names")
	}
}
