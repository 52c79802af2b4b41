package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"proger/internal/progress"
	"proger/internal/sched"
)

// qty computes the Eq.-1 quality of a figure series on the figure's own
// grid with linearly decaying weights, for shape comparisons.
func qty(t *testing.T, f *Figure, label string) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		q := 0.0
		prev := 0.0
		k := len(f.Times)
		for i := range f.Times {
			wgt := float64(k-i) / float64(k)
			q += wgt * (s.Recalls[i] - prev)
			prev = s.Recalls[i]
		}
		return q
	}
	t.Fatalf("series %q not found in %s", label, f.ID)
	return 0
}

func finalRecall(t *testing.T, f *Figure, label string) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s.Recalls[len(s.Recalls)-1]
		}
	}
	t.Fatalf("series %q not found in %s", label, f.ID)
	return 0
}

func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(Fig8Config{Entities: 2000, Seed: 81, Machines: 5, GridPoints: 12})
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	for _, fig := range []*Figure{res.Left, res.Mid, res.Right} {
		if len(fig.Series) < 2 {
			t.Fatalf("%s has %d series", fig.ID, len(fig.Series))
		}
		// Our approach must beat every Basic variant on quality.
		qOurs := qty(t, fig, "Our Approach")
		for _, s := range fig.Series {
			if s.Label == "Our Approach" {
				continue
			}
			if q := qty(t, fig, s.Label); q >= qOurs {
				t.Errorf("%s: %s quality %.4f ≥ ours %.4f", fig.ID, s.Label, q, qOurs)
			}
		}
	}
	// Optimistic popcorn plateaus below Basic F (the Fig. 8 story).
	if fr, frF := finalRecall(t, res.Left, "Basic 0.1"), finalRecall(t, res.Left, "Basic F"); fr >= frF {
		t.Errorf("Basic 0.1 final recall %.3f should be below Basic F %.3f", fr, frF)
	}
	// Our final recall is at least Basic F's (progressive blocking
	// resolves within smaller blocks where the window misses less).
	if fo, fb := finalRecall(t, res.Left, "Our Approach"), finalRecall(t, res.Left, "Basic F"); fo < fb-0.02 {
		t.Errorf("our final recall %.3f clearly below Basic F %.3f", fo, fb)
	}
	if res.TableIII == nil || len(res.TableIII.Rows) != len(table3Thresholds)+1 {
		t.Fatal("Table III missing rows")
	}
	out := res.TableIII.Render()
	if !strings.Contains(out, "Thresh.") || !strings.Contains(out, "Ours") {
		t.Errorf("Table III render malformed:\n%s", out)
	}
}

func TestTable3Tradeoff(t *testing.T) {
	res, err := Fig8(Fig8Config{Entities: 1500, Seed: 83, Machines: 4, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.TableIII.Rows
	// First row is the most aggressive threshold (0.1), the row before
	// "Ours" is F. Recall must not decrease from first to F; time must
	// increase substantially.
	parse := func(s string) float64 {
		var v float64
		if _, err := sscan(s, &v); err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	firstRecall15 := parse(rows[0][2])
	fRecall15 := parse(rows[len(rows)-2][2])
	if firstRecall15 > fRecall15 {
		t.Errorf("aggressive threshold recall %.2f exceeds F %.2f", firstRecall15, fRecall15)
	}
	firstTime15 := parse(rows[0][4])
	fTime15 := parse(rows[len(rows)-2][4])
	if firstTime15 >= fTime15 {
		t.Errorf("aggressive threshold time %.0f not below F time %.0f", firstTime15, fTime15)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func TestFig9SchedulerOrdering(t *testing.T) {
	res, err := Fig9(Fig9Config{Entities: 2500, Seed: 91, Machines: []int{6, 10}, GridPoints: 12})
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(res.SubFigures) != 2 {
		t.Fatalf("subfigures = %d", len(res.SubFigures))
	}
	for _, fig := range res.SubFigures {
		qOurs := qty(t, fig, "Our Algorithm")
		qNoSplit := qty(t, fig, "NoSplit")
		qLPT := qty(t, fig, "LPT")
		t.Logf("%s: ours=%.4f nosplit=%.4f lpt=%.4f", fig.ID, qOurs, qNoSplit, qLPT)
		if qOurs < qNoSplit-0.02 {
			t.Errorf("%s: ours %.4f clearly below NoSplit %.4f", fig.ID, qOurs, qNoSplit)
		}
		if qOurs < qLPT-0.02 {
			t.Errorf("%s: ours %.4f clearly below LPT %.4f", fig.ID, qOurs, qLPT)
		}
	}
}

func TestFig10OursBeatsBasic(t *testing.T) {
	res, err := Fig10(Fig10Config{Entities: 6000, Seed: 101, Machines: []int{8, 4}, GridPoints: 12})
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	if len(res.SubFigures) != 2 {
		t.Fatalf("subfigures = %d", len(res.SubFigures))
	}
	var gaps []float64
	for _, fig := range res.SubFigures {
		qOurs := qty(t, fig, "Our Approach")
		best := 0.0
		for _, s := range fig.Series {
			if s.Label == "Our Approach" {
				continue
			}
			if q := qty(t, fig, s.Label); q > best {
				best = q
			}
		}
		t.Logf("%s: ours=%.4f bestBasic=%.4f", fig.ID, qOurs, best)
		if qOurs <= best {
			t.Errorf("%s: ours %.4f not above best Basic %.4f", fig.ID, qOurs, best)
		}
		gaps = append(gaps, qOurs-best)
	}
	// The paper: the gap grows as θ grows (fewer machines).
	if gaps[1] < gaps[0]-0.05 {
		t.Errorf("quality gap should grow with θ: %.4f (θ small) vs %.4f (θ large)", gaps[0], gaps[1])
	}
}

func TestFig11Speedup(t *testing.T) {
	res, err := Fig11(Fig11Config{Entities: 3000, Seed: 111, Machines: []int{4, 8, 16}, Recalls: []float64{0.2, 0.4, 0.6}})
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	if len(res.Speedup) != 3 {
		t.Fatalf("rows = %d", len(res.Speedup))
	}
	for i, row := range res.Speedup {
		// Speedup at the base machine count is 1 when reached.
		if row[0] != 0 && (row[0] < 0.999 || row[0] > 1.001) {
			t.Errorf("recall %.1f: self-speedup %.3f ≠ 1", res.Recalls[i], row[0])
		}
		// The largest cluster must be at least as fast as the base for
		// the highest recall level measured.
		if i == len(res.Speedup)-1 && row[len(row)-1] != 0 && row[len(row)-1] < 1 {
			t.Errorf("recall %.1f: %d machines slower than base (%.3f)", res.Recalls[i], res.Machines[len(row)-1], row[len(row)-1])
		}
	}
	// The paper: speedup grows (or at least does not shrink much) with
	// the recall level for the biggest cluster.
	last := len(res.Machines) - 1
	lowR, highR := res.Speedup[0][last], res.Speedup[len(res.Speedup)-1][last]
	t.Logf("speedup at %d machines: recall %.1f → %.2f, recall %.1f → %.2f",
		res.Machines[last], res.Recalls[0], lowR, res.Recalls[len(res.Recalls)-1], highR)
	if lowR != 0 && highR != 0 && highR < lowR*0.7 {
		t.Errorf("speedup should not collapse at higher recall: %.2f → %.2f", lowR, highR)
	}
	if res.Table == nil || len(res.Table.Rows) != 3 {
		t.Error("Fig11 table missing")
	}
}

func TestFigureRender(t *testing.T) {
	run := &Run{Label: "demo", Curve: progress.BuildCurve(nil, 1, 10), Total: 10}
	fig := NewFigure("F", "demo fig", 4, run)
	out := fig.Render()
	if !strings.Contains(out, "demo fig") || !strings.Contains(out, "cost units") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 6 { // header + column line + 4 grid rows
		t.Errorf("render has %d lines:\n%s", lines, out)
	}
}

// TestFigureAUCIsThePlottedCurves: a figure's auc row is the area
// under the curve it plots, the ground-truth recall curve: each
// series' AUC is its run's Curve.AUC(), for the paper's approach and
// for Basic alike.
func TestFigureAUCIsThePlottedCurves(t *testing.T) {
	w := PublicationsWorkload(600, 81)
	ours, err := w.RunOurs(3, sched.Ours, "Our Approach")
	if err != nil {
		t.Fatal(err)
	}
	basic, err := w.RunBasic(3, 15, -1, "Basic F")
	if err != nil {
		t.Fatal(err)
	}
	fig := NewFigure("AUC", "auc demo", 8, ours, basic)
	for i, r := range []*Run{ours, basic} {
		if got, want := fig.Series[i].AUC, r.Curve.AUC(); got != want || want == 0 {
			t.Errorf("%s: figure auc %.4f, plotted curve's area %.4f", r.Label, got, want)
		}
	}
}

func TestWorkloadConstruction(t *testing.T) {
	w := PublicationsWorkload(600, 3)
	if w.DS.Len() < 600 || w.GT.NumDupPairs() == 0 || len(w.Fams) != 3 {
		t.Error("publications workload malformed")
	}
	b := BooksWorkload(600, 3)
	if b.DS.Len() < 600 || b.DS.Schema.Len() != 8 || b.Mech.Name() != "PSNM" {
		t.Error("books workload malformed")
	}
	if w.Mech.Name() != "SN" {
		t.Error("publications should use SN")
	}
}

func TestFig1Concept(t *testing.T) {
	fig, err := Fig1(Fig1Config{Entities: 2500, Seed: 81, Machines: 5, GridPoints: 12})
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	trad := fig.Series[0]
	if trad.Label != "Traditional" {
		t.Fatalf("first series = %q", trad.Label)
	}
	// Traditional is zero everywhere except (possibly) the final point.
	for i := 0; i < len(trad.Recalls)-1; i++ {
		if fig.Times[i] < fig.Times[len(fig.Times)-1] && trad.Recalls[i] > 0 {
			// Only nonzero if the grid point is ≥ the incremental total;
			// with a shared grid ending at the max total, mid points may
			// pass the incremental end. Require the first half zero.
			if i < len(trad.Recalls)/2 {
				t.Errorf("traditional has recall %.3f at grid %d", trad.Recalls[i], i)
			}
		}
	}
	// Progressive beats incremental on quality.
	qProg := qty(t, fig, "Progressive (ours)")
	qInc := qty(t, fig, "Incremental")
	qTrad := qty(t, fig, "Traditional")
	t.Logf("qty: progressive=%.4f incremental=%.4f traditional=%.4f", qProg, qInc, qTrad)
	if !(qProg > qInc && qInc > qTrad) {
		t.Errorf("expected progressive > incremental > traditional, got %.4f, %.4f, %.4f", qProg, qInc, qTrad)
	}
}

func TestPlot(t *testing.T) {
	run1 := &Run{Label: "alpha", Curve: progress.BuildCurve([]progress.Event{
		{Time: 10, Pair: pair(0, 1), TrueDup: true},
		{Time: 20, Pair: pair(2, 3), TrueDup: true},
	}, 2, 40), Total: 40}
	run2 := &Run{Label: "beta", Curve: progress.BuildCurve([]progress.Event{
		{Time: 35, Pair: pair(0, 1), TrueDup: true},
	}, 2, 40), Total: 40}
	fig := NewFigure("P", "plot demo", 8, run1, run2)
	out := fig.Plot(24, 6)
	if !strings.Contains(out, "o = alpha") || !strings.Contains(out, "+ = beta") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "plot demo") {
		t.Errorf("title missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 6 rows + axis + scale + 2 legend lines.
	if len(lines) != 11 {
		t.Errorf("plot has %d lines:\n%s", len(lines), out)
	}
	// Every grid row is framed and of equal width.
	for _, l := range lines[1:7] {
		if !strings.Contains(l, "|") {
			t.Errorf("row not framed: %q", l)
		}
	}
	// Both glyphs appear somewhere in the grid.
	body := strings.Join(lines[1:7], "\n")
	if !strings.Contains(body, "o") || !strings.Contains(body, "+") {
		t.Errorf("glyphs missing from grid:\n%s", body)
	}
}

func TestPlotDegenerate(t *testing.T) {
	fig := &Figure{ID: "E", Title: "empty"}
	out := fig.Plot(0, 0) // clamps to minimums
	if !strings.Contains(out, "empty") {
		t.Errorf("degenerate plot:\n%s", out)
	}
}

func TestAblation(t *testing.T) {
	res, err := Ablation(AblationConfig{Entities: 1500, Seed: 42, Machines: 4, GridPoints: 10})
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(res.Mechanisms.Series) != 4 {
		t.Fatalf("mechanism series = %d", len(res.Mechanisms.Series))
	}
	if len(res.Components.Series) != 3 {
		t.Fatalf("component series = %d", len(res.Components.Series))
	}
	if len(res.Summary.Rows) != 7 {
		t.Fatalf("summary rows = %d", len(res.Summary.Rows))
	}
	// The no-dedup variant must do at least as many comparisons as the
	// full approach (it re-resolves shared pairs).
	comparisons := func(label string) float64 {
		for _, row := range res.Summary.Rows {
			if row[0] == label {
				var v float64
				if _, err := sscan(row[4], &v); err != nil {
					t.Fatalf("bad comparisons cell %q", row[4])
				}
				return v
			}
		}
		t.Fatalf("row %q missing", label)
		return 0
	}
	full := comparisons("Full approach")
	noDedup := comparisons("No dedup (§V off)")
	if noDedup <= full {
		t.Errorf("no-dedup comparisons %v should exceed full %v", noDedup, full)
	}
	// Every configuration still finds a sensible number of duplicates.
	for _, row := range res.Summary.Rows {
		var recall float64
		if _, err := sscan(row[1], &recall); err != nil || recall < 0.3 {
			t.Errorf("configuration %s has recall %s", row[0], row[1])
		}
	}
}

func TestFigureJSONRoundTrip(t *testing.T) {
	run := &Run{Label: "alpha", Curve: progress.BuildCurve([]progress.Event{
		{Time: 10, Pair: pair(0, 1), TrueDup: true},
	}, 2, 40), Total: 40}
	fig := NewFigure("J", "json demo", 5, run)
	var buf bytes.Buffer
	if err := fig.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back figureJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding WriteJSON output: %v", err)
	}
	if back.ID != fig.ID || back.Title != fig.Title || len(back.Times) != len(fig.Times) {
		t.Errorf("figure metadata lost: %+v", back)
	}
	if len(back.Series) != 1 || back.Series[0].Label != "alpha" {
		t.Errorf("series lost: %+v", back.Series)
	}
	for i := range fig.Times {
		if back.Times[i] != float64(fig.Times[i]) {
			t.Errorf("time %d differs", i)
		}
		if back.Series[0].Recalls[i] != fig.Series[0].Recalls[i] {
			t.Errorf("recall %d differs", i)
		}
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := &Table{ID: "T", Title: "json table", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back tableJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if got := (&Table{ID: back.ID, Title: back.Title, Header: back.Header, Rows: back.Rows}); !reflect.DeepEqual(got, tb) {
		t.Errorf("round trip: %+v vs %+v", got, tb)
	}
}
