package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"proger/internal/costmodel"
	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// catSummary aggregates one span category for the run summary.
type catSummary struct {
	cat      string
	count    int
	totalDur costmodel.Units
	minStart costmodel.Units
	maxEnd   costmodel.Units
}

// WriteRunSummary renders a human-readable digest of a run's
// observability data: the span taxonomy rollup (per category: span
// count, summed simulated duration, covered window), the metrics
// snapshot with per-histogram quantiles, the memory-budget pressure
// digest (peak vs budget, charged volume, forced spills), and the
// quality-telemetry digest (progressiveness sparkline,
// worst-calibrated blocks, most-skewed tasks), and — after a
// distributed run — the fleet digest (per-worker executions, busy
// fraction, skew, traffic, lease ledger). Any pointer argument may be
// nil, a zero mb skips the budget section, an empty fleet skips the
// fleet section; a fully empty argument set writes nothing.
func WriteRunSummary(w io.Writer, tr *obs.Tracer, reg *obs.Registry, q *quality.Recorder, mb membudget.Stats, fleet live.FleetSnapshot) error {
	if tr.Enabled() {
		if err := writeSpanSummary(w, tr); err != nil {
			return err
		}
	}
	if reg.Enabled() {
		if err := writeMetricsSummary(w, reg); err != nil {
			return err
		}
	}
	if mb.Budget > 0 {
		if err := writeBudgetSummary(w, mb); err != nil {
			return err
		}
	}
	if len(fleet.Workers) > 0 {
		if err := writeFleetSummary(w, fleet); err != nil {
			return err
		}
	}
	if q.Enabled() {
		if err := writeQualitySummary(w, q); err != nil {
			return err
		}
	}
	return nil
}

// writeFleetSummary renders the per-worker fleet digest of a
// distributed run.
func writeFleetSummary(w io.Writer, fleet live.FleetSnapshot) error {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d workers (%d alive, %d dead)\n",
		len(fleet.Workers), fleet.Alive, fleet.Dead)
	for _, fw := range fleet.Workers {
		state := ""
		if !fw.Alive {
			state = "  [dead]"
		}
		fmt.Fprintf(&b, "  w%-3d %4d map %4d reduce  busy %.0f units (skew %.2f)  leases %d granted / %d expired%s\n",
			fw.ID, fw.MapDone, fw.ReduceDone,
			fw.BusyCostUnits, fw.SkewVsMean, fw.LeasesGranted, fw.LeasesExpired, state)
		if t := fw.Telemetry; t != nil {
			busyFrac := 0.0
			if total := t.BusyMillis + t.IdleMillis; total > 0 {
				busyFrac = float64(t.BusyMillis) / float64(total)
			}
			fmt.Fprintf(&b, "       busy %.0f%% of pump time  runfile %d B read / %d B written  rpc %d B in / %d B out\n",
				100*busyFrac, t.RunBytesRead, t.RunBytesWritten, t.RPCBytesIn, t.RPCBytesOut)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBudgetSummary renders the memory-budget pressure section.
func writeBudgetSummary(w io.Writer, mb membudget.Stats) error {
	var b strings.Builder
	pct := 100 * float64(mb.Peak) / float64(mb.Budget)
	fmt.Fprintf(&b, "membudget: %d B cap, peak %d B (%.0f%%), charged %d B\n",
		mb.Budget, mb.Peak, pct, mb.ChargedTotal)
	if mb.ForcedSpills > 0 {
		fmt.Fprintf(&b, "  forced spills %d (%d B spilled to disk)\n",
			mb.ForcedSpills, mb.SpilledBytes)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSpanSummary(w io.Writer, tr *obs.Tracer) error {
	spans := tr.Spans()
	byCat := map[string]*catSummary{}
	for i := range spans {
		s := &spans[i]
		c := byCat[s.Cat]
		if c == nil {
			c = &catSummary{cat: s.Cat, minStart: s.Start, maxEnd: s.Start + s.Dur}
			byCat[s.Cat] = c
		}
		c.count++
		c.totalDur += s.Dur
		if s.Start < c.minStart {
			c.minStart = s.Start
		}
		if end := s.Start + s.Dur; end > c.maxEnd {
			c.maxEnd = end
		}
	}
	cats := make([]*catSummary, 0, len(byCat))
	for _, c := range byCat {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool {
		return cats[i].minStart < cats[j].minStart ||
			(cats[i].minStart == cats[j].minStart && cats[i].cat < cats[j].cat)
	})

	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d spans across %d processes (%s)\n",
		len(spans), len(tr.Processes()), strings.Join(tr.Processes(), ", "))
	for _, c := range cats {
		fmt.Fprintf(&b, "  %-10s %6d spans  window [%.0f, %.0f]  busy %.0f units\n",
			c.cat, c.count, c.minStart, c.maxEnd, c.totalDur)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeMetricsSummary(w io.Writer, reg *obs.Registry) error {
	snap := reg.Snapshot()
	var b strings.Builder
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		return nil
	}
	fmt.Fprintf(&b, "metrics: %d counters, %d gauges, %d histograms\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	widest := 0
	for _, c := range snap.Counters {
		if len(c.Name) > widest {
			widest = len(c.Name)
		}
	}
	for _, g := range snap.Gauges {
		if len(g.Name) > widest {
			widest = len(g.Name)
		}
	}
	for _, c := range snap.Counters {
		fmt.Fprintf(&b, "  %-*s %14d\n", widest, c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(&b, "  %-*s %14.1f\n", widest, g.Name, g.Value)
	}
	for _, h := range snap.Histograms {
		fmt.Fprintf(&b, "  %s: n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
			h.Name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// summaryTopN bounds the worst-calibrated-blocks and most-skewed-tasks
// lists in the quality digest.
const summaryTopN = 5

func writeQualitySummary(w io.Writer, q *quality.Recorder) error {
	exp := q.Export(0)
	var b strings.Builder
	curve := exp.Curve
	fmt.Fprintf(&b, "quality: %d blocks resolved, %d pairs, %d dups, AUC %.3f\n",
		curve.FinalBlocks, curve.FinalPairs, curve.FinalDups, curve.AUC)
	if len(curve.Points) > 0 {
		fmt.Fprintf(&b, "  progress %s  (recall over [0, %.0f], Δ=%.0f)\n",
			sparkline(curve.Points), curve.End, curve.SampleEvery)
	}
	rep := exp.Calibration
	if worst := rep.WorstBlocks(summaryTopN); len(worst) > 0 {
		fmt.Fprintf(&b, "  worst-calibrated blocks (predicted vs realized dups):\n")
		for _, bc := range worst {
			fmt.Fprintf(&b, "    %-20s task %d  pred %.1f  real %d  err %+.1f\n",
				bc.ID, bc.Task, bc.PredDup, bc.Dups, bc.DupErr)
		}
	}
	if skewed := rep.MostSkewed(summaryTopN); len(skewed) > 0 {
		fmt.Fprintf(&b, "  most-skewed tasks (planned vs realized cost):\n")
		for _, ts := range skewed {
			fmt.Fprintf(&b, "    task %d  planned %.0f  slack %.0f  realized %.0f  err %+.0f  skew %.2f\n",
				ts.Task, ts.PlannedCost, ts.PlannedSlack, ts.RealizedCost, ts.CostErr, ts.Skew)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sparkBars are the eight block-element levels used by sparkline.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the curve's recall values as one bar per sample.
func sparkline(points []quality.SamplePoint) string {
	var b strings.Builder
	for _, p := range points {
		i := int(p.Recall * float64(len(sparkBars)))
		if i >= len(sparkBars) {
			i = len(sparkBars) - 1
		}
		if i < 0 {
			i = 0
		}
		b.WriteRune(sparkBars[i])
	}
	return b.String()
}
