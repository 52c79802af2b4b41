package experiments

import (
	"fmt"
	"strings"

	"proger/internal/costmodel"
)

// Figure is one recall-vs-cost plot: several labeled curves sampled on
// a shared time grid, matching the sub-figures of Figs. 8–10.
type Figure struct {
	ID     string
	Title  string
	Times  []costmodel.Units
	Series []FigureSeries
	XLabel string
	YLabel string
}

// FigureSeries is one curve of a figure.
type FigureSeries struct {
	Label   string
	Recalls []float64
	// AUC is the normalized area under the plotted curve, the run's
	// Curve.AUC().
	AUC float64
}

// NewFigure samples each run's curve on a uniform grid up to the
// longest run's completion time.
func NewFigure(id, title string, points int, runs ...*Run) *Figure {
	var end costmodel.Units
	for _, r := range runs {
		if r.Total > end {
			end = r.Total
		}
	}
	if points < 2 {
		points = 2
	}
	f := &Figure{ID: id, Title: title, XLabel: "cost units", YLabel: "duplicate recall"}
	f.Times = make([]costmodel.Units, points)
	for i := range f.Times {
		f.Times[i] = end * costmodel.Units(i+1) / costmodel.Units(points)
	}
	for _, r := range runs {
		f.Series = append(f.Series, FigureSeries{Label: r.Label, Recalls: r.Curve.Sample(f.Times), AUC: r.Curve.AUC()})
	}
	return f
}

// Render prints the figure as an aligned text table: one row per grid
// time, one column per series — the same information the paper plots.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %16s", trunc(s.Label, 16))
	}
	b.WriteByte('\n')
	for i, t := range f.Times {
		fmt.Fprintf(&b, "%12.0f", t)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "  %16.3f", s.Recalls[i])
		}
		b.WriteByte('\n')
	}
	hasAUC := false
	for _, s := range f.Series {
		if s.AUC > 0 {
			hasAUC = true
			break
		}
	}
	if hasAUC {
		fmt.Fprintf(&b, "%12s", "auc")
		for _, s := range f.Series {
			fmt.Fprintf(&b, "  %16.3f", s.AUC)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a rendered result table (Table III and the Fig. 11 rows).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
