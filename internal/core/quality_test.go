package core

import (
	"bytes"
	"testing"

	"proger/internal/datagen"
	"proger/internal/estimate"
	"proger/internal/mechanism"
	"proger/internal/obs/quality"
	"proger/internal/sched"
)

// qualityPeopleOptions returns People-toy options with a fresh quality
// recorder attached.
func qualityPeopleOptions(workers int) Options {
	return Options{
		Families:        peopleFamilies(),
		Matcher:         peopleMatcher(),
		Mechanism:       mechanism.SN{},
		Policy:          estimate.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
		Scheduler:       sched.Ours,
		Host:            Host{Workers: workers, Quality: quality.NewRecorder()},
	}
}

func exportJSON(t *testing.T, q *quality.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := q.Export(0).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestResolveQualityCoverage(t *testing.T) {
	ds, _ := datagen.People()
	opts := qualityPeopleOptions(0)
	res, err := Resolve(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	exp := opts.Quality.Export(0)
	rep := exp.Calibration

	// Every scheduled block has a calibration row, joined by SQ; every
	// resolved block is marked so.
	scheduled := 0
	for _, blocks := range res.Schedule.TaskBlocks {
		scheduled += len(blocks)
	}
	if len(rep.Blocks) != scheduled {
		t.Errorf("calibration rows = %d, want %d (one per scheduled block)", len(rep.Blocks), scheduled)
	}
	bySQ := map[int64]bool{}
	for _, blocks := range res.Schedule.TaskBlocks {
		for _, b := range blocks {
			bySQ[b.SQ] = true
		}
	}
	resolved := 0
	for _, bc := range rep.Blocks {
		if !bySQ[bc.SQ] {
			t.Errorf("calibration row for unscheduled SQ %d", bc.SQ)
		}
		if bc.Resolved {
			resolved++
			if bc.Cost <= 0 {
				t.Errorf("resolved block %s has cost %g", bc.ID, bc.Cost)
			}
		}
	}
	if resolved == 0 {
		t.Error("no calibration row marked resolved")
	}

	// Every scheduled reduce task has a skew row with its planned load.
	if len(rep.Tasks) != res.Schedule.R {
		t.Errorf("task skew rows = %d, want R = %d", len(rep.Tasks), res.Schedule.R)
	}
	for _, ts := range rep.Tasks {
		if ts.PlannedCost <= 0 {
			t.Errorf("task %d has no planned cost: %+v", ts.Task, ts)
		}
	}

	// The realized duplicates across observations equal the pipeline's.
	var dups int64
	for _, o := range opts.Quality.Observations() {
		dups += o.Dups
	}
	if dups != int64(len(res.Duplicates)) {
		t.Errorf("observed dups = %d, want %d", dups, len(res.Duplicates))
	}

	// The curve is sane: closes at a positive end with recall 1.
	c := exp.Curve
	if c.End <= 0 || c.End > float64(res.TotalTime) {
		t.Errorf("curve end %g outside (0, %v]", c.End, res.TotalTime)
	}
	if c.AUC <= 0 || c.AUC > 1 {
		t.Errorf("AUC = %g, want in (0, 1]", c.AUC)
	}
	if last := c.Points[len(c.Points)-1]; last.Recall != 1 {
		t.Errorf("closing recall = %g, want 1", last.Recall)
	}

	// Bucket stats reference the estimator's labels.
	if len(rep.Buckets) == 0 {
		t.Error("no bucket stats")
	}
	for _, bs := range rep.Buckets {
		if bs.Bucket < 0 || bs.Bucket >= estimate.NumFracBuckets {
			t.Errorf("bucket index %d outside [0, %d)", bs.Bucket, estimate.NumFracBuckets)
		}
		if bs.Label == "" {
			t.Errorf("bucket %d has no label", bs.Bucket)
		}
	}
}

func TestQualityDeterministicAcrossWorkers(t *testing.T) {
	ds, _ := datagen.People()

	opts1 := qualityPeopleOptions(1)
	if _, err := Resolve(ds, opts1); err != nil {
		t.Fatal(err)
	}
	base := exportJSON(t, opts1.Quality)

	opts8 := qualityPeopleOptions(8)
	if _, err := Resolve(ds, opts8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, exportJSON(t, opts8.Quality)) {
		t.Error("quality export differs between 1 and 8 workers")
	}
}

func TestQualityRecordingDoesNotChangeResults(t *testing.T) {
	ds, _ := datagen.People()
	plainOpts := qualityPeopleOptions(0)
	plainOpts.Quality = nil
	plain, err := Resolve(ds, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := Resolve(ds, qualityPeopleOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalTime != recorded.TotalTime {
		t.Errorf("quality recording changed timing: %v vs %v", plain.TotalTime, recorded.TotalTime)
	}
	if len(plain.Events) != len(recorded.Events) {
		t.Errorf("quality recording changed events: %d vs %d", len(plain.Events), len(recorded.Events))
	}
}

func TestResolveBasicQuality(t *testing.T) {
	ds, _ := datagen.People()
	q := quality.NewRecorder()
	res, err := ResolveBasic(ds, BasicOptions{
		Families:         peopleFamilies(),
		Matcher:          peopleMatcher(),
		Mechanism:        mechanism.SN{},
		Window:           5,
		PopcornThreshold: -1,
		Machines:         2,
		SlotsPerMachine:  2,
		Host:             Host{Quality: q},
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := q.Export(0)
	// No schedule: realizations only — curve populated, join empty.
	if len(exp.Calibration.Blocks) != 0 || len(exp.Calibration.Buckets) != 0 {
		t.Errorf("basic run produced prediction rows: %+v", exp.Calibration)
	}
	if len(exp.Calibration.Tasks) == 0 {
		t.Error("basic run produced no task rows")
	}
	var dups int64
	for _, o := range q.Observations() {
		if o.SQ != -1 {
			t.Errorf("basic observation with SQ %d, want -1", o.SQ)
		}
		if !o.Full {
			t.Error("Basic F observation not marked full")
		}
		dups += o.Dups
	}
	if dups != int64(len(res.Duplicates)) {
		t.Errorf("observed dups = %d, want %d", dups, len(res.Duplicates))
	}
}
