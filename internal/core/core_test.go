package core

import (
	"testing"

	"proger/internal/blocking"
	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/estimate"
	"proger/internal/match"
	"proger/internal/mechanism"
	"proger/internal/progress"
	"proger/internal/sched"
)

// pubMatcher is the CiteSeerX-style resolve function: weighted edit
// similarity on title/abstract/venue (§VI-A2; abstracts truncated to
// 350 chars).
func pubMatcher() *match.Matcher {
	return match.MustNew(0.75,
		match.Rule{Attr: 0, Weight: 0.5, Kind: match.EditDistance},
		match.Rule{Attr: 1, Weight: 0.3, Kind: match.EditDistance, MaxChars: 350},
		match.Rule{Attr: 2, Weight: 0.2, Kind: match.EditDistance},
	)
}

func peopleMatcher() *match.Matcher {
	return match.MustNew(0.75,
		match.Rule{Attr: 0, Weight: 0.8, Kind: match.EditDistance},
		match.Rule{Attr: 1, Weight: 0.2, Kind: match.EditDistance},
	)
}

func peopleFamilies() blocking.Families {
	return blocking.Families{
		{Name: "X", Attr: 0, PrefixLens: []int{2, 3, 5}, Index: 1},
		{Name: "Y", Attr: 1, PrefixLens: []int{2}, Index: 2},
	}
}

func pubOptions(ds *entity.Dataset, gt *datagen.GroundTruth, machines int) Options {
	fams := blocking.CiteSeerXFamilies(ds.Schema)
	// Train on a separate dataset (different seed), as the paper trains
	// on a training dataset.
	trainDS, trainGT := datagen.Publications(datagen.DefaultPublications(800, 999))
	model := estimate.Train(trainDS, trainGT, blocking.CiteSeerXFamilies(trainDS.Schema))
	return Options{
		Families:        fams,
		Matcher:         pubMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		DupModel:        model,
		Machines:        machines,
		SlotsPerMachine: 2,
		Scheduler:       sched.Ours,
	}
}

func TestResolvePeopleToy(t *testing.T) {
	ds, gt := datagen.People()
	res, err := Resolve(ds, Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
		Scheduler:       sched.Ours,
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// All 4 true pairs must be found: {e0,e1,e2} pairs + {e3,e4}.
	want := []entity.Pair{
		entity.MakePair(0, 1), entity.MakePair(0, 2), entity.MakePair(1, 2),
		entity.MakePair(3, 4),
	}
	for _, p := range want {
		if !res.Duplicates.Has(p) {
			t.Errorf("missing duplicate %v", p)
		}
	}
	// No false positives on the toy data.
	for p := range res.Duplicates {
		if !gt.IsDup(p) {
			t.Errorf("false positive %v", p)
		}
	}
	if res.TotalTime <= 0 {
		t.Error("no simulated time elapsed")
	}
	if res.Schedule == nil || res.Job1 == nil || res.Job2 == nil {
		t.Error("result missing diagnostics")
	}
}

func TestResolvePublicationsRecall(t *testing.T) {
	ds, gt := datagen.Publications(datagen.DefaultPublications(1500, 41))
	res, err := Resolve(ds, pubOptions(ds, gt, 3))
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	events := res.EventsAgainst(gt.IsDup)
	curve := progress.BuildCurve(events, gt.NumDupPairs(), res.TotalTime)
	if fr := curve.FinalRecall(); fr < 0.85 {
		t.Errorf("final recall %v below 0.85 — pipeline loses duplicates", fr)
	}
	// Precision sanity: most identified pairs must be true duplicates.
	truePos := 0
	for p := range res.Duplicates {
		if gt.IsDup(p) {
			truePos++
		}
	}
	if prec := float64(truePos) / float64(len(res.Duplicates)); prec < 0.9 {
		t.Errorf("precision %v below 0.9", prec)
	}
}

func TestResolveNoPairResolvedTwice(t *testing.T) {
	// Redundancy-free resolution (§V): every pair is emitted at most
	// once across all blocks, trees, families, and reduce tasks.
	ds, _ := datagen.Publications(datagen.DefaultPublications(1200, 43))
	gt2, _ := datagen.Publications(datagen.DefaultPublications(1200, 43))
	_ = gt2
	res, err := Resolve(ds, pubOptions(ds, nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	seen := entity.PairSet{}
	for _, ev := range res.Events {
		if !seen.Add(ev.Pair) {
			t.Fatalf("pair %v emitted twice — redundancy elimination broken", ev.Pair)
		}
	}
}

func TestResolveDeterminism(t *testing.T) {
	ds, gt := datagen.Publications(datagen.DefaultPublications(700, 47))
	run := func() *Result {
		res, err := Resolve(ds, pubOptions(ds, gt, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime {
		t.Errorf("total times differ: %v vs %v", a.TotalTime, b.TotalTime)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Pair != b.Events[i].Pair || a.Events[i].Time != b.Events[i].Time {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestResolveEventTimesWithinRun(t *testing.T) {
	ds, gt := datagen.Publications(datagen.DefaultPublications(600, 53))
	res, err := Resolve(ds, pubOptions(ds, gt, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no duplicates found at all")
	}
	for _, ev := range res.Events {
		if ev.Time < res.Job2.MapEnd || ev.Time > res.TotalTime {
			t.Errorf("event at %v outside reduce phase [%v, %v]", ev.Time, res.Job2.MapEnd, res.TotalTime)
		}
	}
	if res.Job2.Start != res.Job1.End {
		t.Errorf("job 2 must start when job 1 ends: %v vs %v", res.Job2.Start, res.Job1.End)
	}
}

func TestResolveValidation(t *testing.T) {
	ds, _ := datagen.People()
	good := Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Machines:        1,
		SlotsPerMachine: 1,
	}
	cases := []func(*Options){
		func(o *Options) { o.Families = nil },
		func(o *Options) { o.Matcher = nil },
		func(o *Options) { o.Mechanism = nil },
		func(o *Options) { o.Machines = 0 },
		func(o *Options) { o.SlotsPerMachine = 0 },
	}
	for i, mutate := range cases {
		opts := good
		mutate(&opts)
		if _, err := Resolve(ds, opts); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestResolveBasicPeople(t *testing.T) {
	ds, gt := datagen.People()
	res, err := ResolveBasic(ds, BasicOptions{
		Families:         peopleFamilies(),
		Matcher:          peopleMatcher(),
		Mechanism:        mechanism.SN{},
		Window:           15,
		PopcornThreshold: -1, // Basic F
		Machines:         2,
		SlotsPerMachine:  2,
	})
	if err != nil {
		t.Fatalf("ResolveBasic: %v", err)
	}
	if got := int64(len(res.Duplicates)); got != gt.NumDupPairs() {
		t.Errorf("Basic F found %d pairs, want %d", got, gt.NumDupPairs())
	}
	// Kolb rule: no pair emitted twice even though shared pairs exist.
	seen := entity.PairSet{}
	for _, ev := range res.Events {
		if !seen.Add(ev.Pair) {
			t.Errorf("pair %v resolved twice in Basic", ev.Pair)
		}
	}
}

func TestResolveBasicPopcornTradeoff(t *testing.T) {
	// More aggressive popcorn thresholds must terminate earlier with
	// lower (or equal) final recall — Table III's monotone tradeoff.
	ds, gt := datagen.Publications(datagen.DefaultPublications(1200, 59))
	fams := blocking.CiteSeerXFamilies(ds.Schema)
	run := func(threshold float64) (recall float64, total float64) {
		res, err := ResolveBasic(ds, BasicOptions{
			Families:         fams,
			Matcher:          pubMatcher(),
			Mechanism:        mechanism.SN{},
			Window:           15,
			PopcornThreshold: threshold,
			Machines:         3,
			SlotsPerMachine:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		events := res.EventsAgainst(gt.IsDup)
		curve := progress.BuildCurve(events, gt.NumDupPairs(), res.TotalTime)
		return curve.FinalRecall(), float64(res.TotalTime)
	}
	recallF, timeF := run(-1)
	recallAggressive, timeAggressive := run(0.1)
	if recallAggressive > recallF {
		t.Errorf("aggressive threshold recall %v exceeds full resolve %v", recallAggressive, recallF)
	}
	if timeAggressive >= timeF {
		t.Errorf("aggressive threshold time %v not below full resolve %v", timeAggressive, timeF)
	}
	if recallF < 0.6 {
		t.Errorf("Basic F recall %v suspiciously low", recallF)
	}
}

func TestResolveBasicValidation(t *testing.T) {
	ds, _ := datagen.People()
	good := BasicOptions{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Window:          15,
		Machines:        1,
		SlotsPerMachine: 1,
	}
	cases := []func(*BasicOptions){
		func(o *BasicOptions) { o.Families = nil },
		func(o *BasicOptions) { o.Matcher = nil },
		func(o *BasicOptions) { o.Mechanism = nil },
		func(o *BasicOptions) { o.Window = 1 },
		func(o *BasicOptions) { o.Machines = 0 },
	}
	for i, mutate := range cases {
		opts := good
		mutate(&opts)
		if _, err := ResolveBasic(ds, opts); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestOurApproachBeatsBasicOnQuality(t *testing.T) {
	// The headline claim (Fig. 8): our approach identifies duplicates
	// at a higher rate than Basic. Compare Qty (Eq. 1) on a shared
	// sampling grid.
	ds, gt := datagen.Publications(datagen.DefaultPublications(4000, 61))
	ours, err := Resolve(ds, pubOptions(ds, gt, 5))
	if err != nil {
		t.Fatal(err)
	}
	basic, err := ResolveBasic(ds, BasicOptions{
		Families:         blocking.CiteSeerXFamilies(ds.Schema),
		Matcher:          pubMatcher(),
		Mechanism:        mechanism.SN{},
		Window:           15,
		PopcornThreshold: -1,
		Machines:         5,
		SlotsPerMachine:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := gt.NumDupPairs()
	oursCurve := progress.BuildCurve(ours.EventsAgainst(gt.IsDup), total, ours.TotalTime)
	basicCurve := progress.BuildCurve(basic.EventsAgainst(gt.IsDup), total, basic.TotalTime)
	end := ours.TotalTime
	if basic.TotalTime > end {
		end = basic.TotalTime
	}
	k := 20
	costs := make([]float64, k)
	weights := make([]float64, k)
	for i := range costs {
		costs[i] = end * float64(i+1) / float64(k)
		weights[i] = float64(k-i) / float64(k)
	}
	qOurs, err := progress.Qty(oursCurve, costs, weights)
	if err != nil {
		t.Fatal(err)
	}
	qBasic, err := progress.Qty(basicCurve, costs, weights)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Qty ours = %.4f, basic = %.4f; final recall ours = %.3f, basic = %.3f",
		qOurs, qBasic, oursCurve.FinalRecall(), basicCurve.FinalRecall())
	if qOurs <= qBasic {
		t.Errorf("our approach Qty %v should beat Basic %v", qOurs, qBasic)
	}
}

func TestResolveClusters(t *testing.T) {
	ds, gt := datagen.People()
	res, err := Resolve(ds, Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	clusters := res.Clusters(ds.Len())
	// Six real-world people → six clusters.
	if len(clusters) != len(gt.Clusters) {
		t.Fatalf("clusters = %d, want %d", len(clusters), len(gt.Clusters))
	}
	if len(clusters[0]) != 3 {
		t.Errorf("first cluster = %v, want the John Lopez triple", clusters[0])
	}
}

func TestDisableSubBlockingDoesNotMutateCallerFamilies(t *testing.T) {
	ds, gt := datagen.Publications(datagen.DefaultPublications(500, 91))
	opts := pubOptions(ds, gt, 2)
	opts.DisableSubBlocking = true
	levelsBefore := make([]int, len(opts.Families))
	for i, f := range opts.Families {
		levelsBefore[i] = f.Levels()
	}
	if _, err := Resolve(ds, opts); err != nil {
		t.Fatal(err)
	}
	for i, f := range opts.Families {
		if f.Levels() != levelsBefore[i] {
			t.Errorf("family %d truncated in place: %d levels", i, f.Levels())
		}
	}
}
