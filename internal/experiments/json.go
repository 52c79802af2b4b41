package experiments

import (
	"encoding/json"
	"io"
)

// figureJSON is the stable JSON shape of a Figure, for external
// plotting tools (gnuplot, matplotlib, vega).
type figureJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xLabel"`
	YLabel string       `json:"yLabel"`
	Times  []float64    `json:"times"`
	Series []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Label   string    `json:"label"`
	Recalls []float64 `json:"recalls"`
	AUC     float64   `json:"auc,omitempty"`
}

// WriteJSON serializes the figure.
func (f *Figure) WriteJSON(w io.Writer) error {
	out := figureJSON{
		ID:     f.ID,
		Title:  f.Title,
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		Times:  make([]float64, len(f.Times)),
	}
	for i, t := range f.Times {
		out.Times[i] = float64(t)
	}
	for _, s := range f.Series {
		out.Series = append(out.Series, seriesJSON{Label: s.Label, Recalls: s.Recalls, AUC: s.AUC})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// tableJSON is the stable JSON shape of a Table.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tableJSON{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows})
}
