package report

import (
	"strings"
	"testing"

	"proger/internal/membudget"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

func TestWriteRunSummary(t *testing.T) {
	tr := obs.New()
	pid := tr.PID("job")
	tr.Add(obs.Span{Name: "map 0", Cat: "map", PID: pid, TID: 0, Start: 10, Dur: 5})
	tr.Add(obs.Span{Name: "map 1", Cat: "map", PID: pid, TID: 1, Start: 10, Dur: 7})
	tr.Add(obs.Span{Name: "reduce 0", Cat: "reduce", PID: pid, TID: 0, Start: 17, Dur: 3})

	reg := obs.NewRegistry()
	reg.Counter("job.records").Add(42)
	reg.Gauge("job.end").Set(20)
	h := reg.Histogram("job.task_cost", 1, 10, 100)
	h.Observe(5)
	h.Observe(7)

	q := quality.NewRecorder()
	q.RecordPlan(quality.TaskPlan{Task: 0, Trees: 1, Blocks: 1, EstCost: 50, Slack: 5})
	q.RecordPrediction(quality.BlockPrediction{ID: "F0.L1(a)", SQ: 7, Task: 0, Size: 4, Bucket: 2, Dup: 3, Cost: 50})
	q.ObserveBlock(quality.BlockObs{ID: "F0.L1(a)", SQ: 7, Task: 0, Start: 10, End: 60, Compared: 6, Dups: 1})

	mb := membudget.Stats{
		Budget:       1 << 20,
		Used:         512 << 10,
		Peak:         768 << 10,
		ChargedTotal: 4 << 20,
		ForcedSpills: 3,
		SpilledBytes: 2 << 20,
	}

	fleet := live.FleetSnapshot{
		Workers: []live.FleetWorker{
			{ID: 1, Alive: true, LeasesGranted: 9, MapDone: 4, ReduceDone: 3, BusyCostUnits: 120, SkewVsMean: 1.2,
				Telemetry: &live.WorkerTelemetry{BusyMillis: 75, IdleMillis: 25,
					RunBytesRead: 1000, RunBytesWritten: 2000,
					RPCBytesIn: 300, RPCBytesOut: 400}},
			{ID: 2, Alive: false, LeasesGranted: 5, LeasesExpired: 2, BusyCostUnits: 80, SkewVsMean: 0.8},
		},
		Alive: 1, Dead: 1,
	}

	var b strings.Builder
	if err := WriteRunSummary(&b, tr, reg, q, mb, fleet); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"3 spans", "job",
		"map", "2 spans", "window [10, 17]", "busy 12 units",
		"reduce", "busy 3 units",
		"1 counters, 1 gauges, 1 histograms",
		"job.records", "42",
		"job.end", "20.0",
		"job.task_cost: n=2 mean=6.0 p50=6.0", "p99=7.0", // observations 5 and 7: no quantile past 7
		"membudget: 1048576 B cap, peak 786432 B (75%), charged 4194304 B",
		"forced spills 3 (2097152 B spilled to disk)",
		"fleet: 2 workers (1 alive, 1 dead)",
		"busy 120 units (skew 1.20)",
		"9 granted / 0 expired",
		"busy 75% of pump time",
		"runfile 1000 B read / 2000 B written",
		"rpc 300 B in / 400 B out",
		"5 granted / 2 expired",
		"[dead]",
		"quality: 1 blocks resolved, 6 pairs, 1 dups",
		"progress ",
		"worst-calibrated blocks",
		"F0.L1(a)", "pred 3.0", "real 1", "err +2.0",
		"most-skewed tasks",
		"planned 50", "realized 50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// Nil tracer, registry, and recorder plus a zero budget and empty
	// fleet write nothing and do not panic.
	var empty strings.Builder
	if err := WriteRunSummary(&empty, nil, nil, nil, membudget.Stats{}, live.FleetSnapshot{}); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("nil summary wrote %q", empty.String())
	}
}

func TestSparkline(t *testing.T) {
	pts := []quality.CurvePoint{{Recall: 0}, {Recall: 0.5}, {Recall: 1}}
	got := sparkline(pts)
	if got != "▁▅█" {
		t.Errorf("sparkline = %q, want %q", got, "▁▅█")
	}
}
