package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"proger/internal/obs/quality"
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

// entry is the catalogue entry name.
func entry(t *testing.T, name string) *Experiment {
	t.Helper()
	for i := range Catalogue {
		if Catalogue[i].Name == name {
			return &Catalogue[i]
		}
	}
	t.Fatalf("no experiment %q in the catalogue", name)
	return nil
}

// output runs the catalogue entry name with cfg.
func output(t *testing.T, name string, cfg Config) *Output {
	t.Helper()
	out, err := entry(t, name).Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// cell parses a numeric table cell; "—" (a level never reached) reads 0.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	if s == "—" {
		return 0
	}
	var v float64
	if _, err := sscan(s, &v); err != nil {
		t.Fatalf("bad cell %q", s)
	}
	return v
}

// TestConfigZeroFieldsTakeDefaults: a zero Config is the defaults, and
// a set field is kept.
func TestConfigZeroFieldsTakeDefaults(t *testing.T) {
	d := Config{Entities: 4000, Seed: 8, Machines: []int{10}, GridPoints: 16}
	if got := (Config{}).or(d); !reflect.DeepEqual(got, d) {
		t.Errorf("zero config → %+v, want %+v", got, d)
	}
	set := Config{Entities: 600, Seed: 3, Machines: []int{4, 8}, GridPoints: 5}
	if got := set.or(d); !reflect.DeepEqual(got, set) {
		t.Errorf("set config → %+v, want it kept", got)
	}
}

func TestFig8Shapes(t *testing.T) {
	out := output(t, "fig8", Config{Entities: 2000, Seed: 81, Machines: []int{5}, GridPoints: 12})
	left, table3 := out.Figures[0], out.Tables[0]
	for _, fig := range out.Figures {
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
	if fr, frF := finalRecall(t, left, "Basic 0.1"), finalRecall(t, left, "Basic F"); fr >= frF {
		t.Errorf("Basic 0.1 final recall %.3f should be below Basic F %.3f", fr, frF)
	}
	// Our final recall is at least Basic F's (progressive blocking
	// resolves within smaller blocks where the window misses less).
	if fo, fb := finalRecall(t, left, "Our Approach"), finalRecall(t, left, "Basic F"); fo < fb-0.02 {
		t.Errorf("our final recall %.3f clearly below Basic F %.3f", fo, fb)
	}
	if len(out.Figures) != 3 || len(out.Tables) != 1 || len(table3.Rows) != len(table3Thresholds)+1 {
		t.Fatal("Fig. 8 sub-figures or Table III rows missing")
	}
	if text := table3.Render(); !strings.Contains(text, "Thresh.") || !strings.Contains(text, "Ours") {
		t.Errorf("Table III render malformed:\n%s", text)
	}
}

func TestTable3Tradeoff(t *testing.T) {
	rows := output(t, "fig8", Config{Entities: 1500, Seed: 83, Machines: []int{4}, GridPoints: 8}).Tables[0].Rows
	// First row is the most aggressive threshold (0.1), the row before
	// "Ours" is F. Recall must not decrease from first to F; time must
	// increase substantially.
	firstRecall15 := cell(t, rows[0][2])
	fRecall15 := cell(t, rows[len(rows)-2][2])
	if firstRecall15 > fRecall15 {
		t.Errorf("aggressive threshold recall %.2f exceeds F %.2f", firstRecall15, fRecall15)
	}
	firstTime15 := cell(t, rows[0][4])
	fTime15 := cell(t, rows[len(rows)-2][4])
	if firstTime15 >= fTime15 {
		t.Errorf("aggressive threshold time %.0f not below F time %.0f", firstTime15, fTime15)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func TestFig9SchedulerOrdering(t *testing.T) {
	figs := output(t, "fig9", Config{Entities: 2500, Seed: 91, Machines: []int{6, 10}, GridPoints: 12}).Figures
	if len(figs) != 2 {
		t.Fatalf("subfigures = %d", len(figs))
	}
	for _, fig := range figs {
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
	figs := output(t, "fig10", Config{Entities: 6000, Seed: 101, Machines: []int{8, 4}, GridPoints: 12}).Figures
	if len(figs) != 2 {
		t.Fatalf("subfigures = %d", len(figs))
	}
	var gaps []float64
	for _, fig := range figs {
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
	machines := []int{4, 8, 16}
	table := output(t, "fig11", Config{Entities: 3000, Seed: 111, Machines: machines}).Tables[0]
	if len(table.Rows) != len(fig11Recalls) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// The speedups of the recall levels 0.2, 0.4 and 0.6, read from the
	// table's cells; 0 when unreached.
	recalls := []float64{0.2, 0.4, 0.6}
	var speedup [][]float64
	for _, rho := range recalls {
		for _, row := range table.Rows {
			if cell(t, row[0]) != rho {
				continue
			}
			cells := make([]float64, len(machines))
			for j := range machines {
				cells[j] = cell(t, row[j+1])
			}
			speedup = append(speedup, cells)
		}
	}
	if len(speedup) != len(recalls) {
		t.Fatalf("rows for recalls %v: %d", recalls, len(speedup))
	}
	for i, row := range speedup {
		// Speedup at the base machine count is 1 when reached.
		if row[0] != 0 && (row[0] < 0.999 || row[0] > 1.001) {
			t.Errorf("recall %.1f: self-speedup %.3f ≠ 1", recalls[i], row[0])
		}
		// The largest cluster must be at least as fast as the base for
		// the highest recall level measured.
		if i == len(speedup)-1 && row[len(row)-1] != 0 && row[len(row)-1] < 1 {
			t.Errorf("recall %.1f: %d machines slower than base (%.3f)", recalls[i], machines[len(row)-1], row[len(row)-1])
		}
	}
	// The paper: speedup grows (or at least does not shrink much) with
	// the recall level for the biggest cluster.
	last := len(machines) - 1
	lowR, highR := speedup[0][last], speedup[len(speedup)-1][last]
	t.Logf("speedup at %d machines: recall %.1f → %.2f, recall %.1f → %.2f",
		machines[last], recalls[0], lowR, recalls[len(recalls)-1], highR)
	if lowR != 0 && highR != 0 && highR < lowR*0.7 {
		t.Errorf("speedup should not collapse at higher recall: %.2f → %.2f", lowR, highR)
	}
}

func TestFigureRender(t *testing.T) {
	run := &Run{Label: "demo", Curve: quality.BuildCurve(nil, 1, 10)}
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
	fig := output(t, "fig1", Config{Entities: 2500, Seed: 81, Machines: []int{5}, GridPoints: 12}).Figures[0]
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
	run1 := &Run{Label: "alpha", Curve: quality.BuildCurve([]quality.Event{
		{Time: 10, Pair: pair(0, 1), TrueDup: true},
		{Time: 20, Pair: pair(2, 3), TrueDup: true},
	}, 2, 40)}
	run2 := &Run{Label: "beta", Curve: quality.BuildCurve([]quality.Event{
		{Time: 35, Pair: pair(0, 1), TrueDup: true},
	}, 2, 40)}
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
	out := output(t, "ablation", Config{Entities: 1500, Seed: 42, Machines: []int{4}, GridPoints: 10})
	mechanisms, components, summary := out.Figures[0], out.Figures[1], out.Tables[0]
	if len(mechanisms.Series) != 4 {
		t.Fatalf("mechanism series = %d", len(mechanisms.Series))
	}
	if len(components.Series) != 3 {
		t.Fatalf("component series = %d", len(components.Series))
	}
	if len(summary.Rows) != 7 {
		t.Fatalf("summary rows = %d", len(summary.Rows))
	}
	// The no-dedup variant must do at least as many comparisons as the
	// full approach (it re-resolves shared pairs).
	comparisons := func(label string) float64 {
		for _, row := range summary.Rows {
			if row[0] == label {
				return cell(t, row[4])
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
	for _, row := range summary.Rows {
		if recall := cell(t, row[1]); recall < 0.3 {
			t.Errorf("configuration %s has recall %s", row[0], row[1])
		}
	}
}

// TestFigureJSONRoundTrip: a figure's JSON document decodes back into
// the figure.
func TestFigureJSONRoundTrip(t *testing.T) {
	run := &Run{Label: "alpha", Curve: quality.BuildCurve([]quality.Event{
		{Time: 10, Pair: pair(0, 1), TrueDup: true},
	}, 2, 40)}
	fig := NewFigure("J", "json demo", 5, run)
	var buf bytes.Buffer
	if err := (&Output{Figures: []*Figure{fig}}).Write(&buf, false, true); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var back Figure
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding the JSON document: %v", err)
	}
	if !reflect.DeepEqual(&back, fig) {
		t.Errorf("round trip: %+v vs %+v", back, *fig)
	}
}

// TestTableJSONRoundTrip: a table's JSON document decodes back into the
// table, and its keys are the documented lower-case ones.
func TestTableJSONRoundTrip(t *testing.T) {
	tb := &Table{ID: "T", Title: "json table", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	if err := (&Output{Tables: []*Table{tb}}).Write(&buf, false, true); err != nil {
		t.Fatal(err)
	}
	const want = "{\n  \"id\": \"T\",\n  \"title\": \"json table\",\n  \"header\": [\n    \"a\",\n    \"b\"\n  ],\n  \"rows\": [\n    [\n      \"1\",\n      \"2\"\n    ]\n  ]\n}\n"
	if buf.String() != want {
		t.Errorf("table JSON:\n%s\nwant:\n%s", buf.String(), want)
	}
	var back Table
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, tb) {
		t.Errorf("round trip: %+v vs %+v", back, *tb)
	}
}
