// Command quickstart resolves the paper's Table-I toy people dataset
// end-to-end with the full parallel progressive pipeline and prints
// every duplicate discovery with its simulated timestamp — the smallest
// possible demonstration of the public API.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"proger"
)

func main() {
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this path")
	metricsPath := flag.String("metrics-out", "", "write run metrics in Prometheus text format to this path")
	qualityPath := flag.String("quality-out", "", "write quality telemetry (progressive-recall curve + calibration report) as JSON to this path")
	sampleEvery := flag.Float64("sample-every", 0, "progressive-recall sampling interval in cost units (0 = total time / 64)")
	faultRate := flag.Float64("fault-rate", 0, "inject simulated task faults at this per-attempt probability (0 disables; results are unaffected)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for deterministic fault injection")
	maxRetries := flag.Int("max-retries", 3, "per-task retry budget when -fault-rate > 0")
	memBudget := flag.Int64("mem-budget", 0, "cap tracked shuffle memory at this many bytes, spilling runs to checksummed run files (0 = all in memory; results are identical)")
	spillDir := flag.String("spill-dir", "", "directory for spill files (default system temp; only used with -mem-budget)")
	statusAddr := flag.String("status", "", "serve the live status server (/healthz, /progress, /tasks, /membudget, /metrics, /debug/pprof) on this address while the run executes")
	flag.Parse()

	var (
		tracer  *proger.Tracer
		metrics *proger.MetricsRegistry
		quality *proger.QualityRecorder
	)
	if *tracePath != "" {
		tracer = proger.NewTracer()
	}
	if *metricsPath != "" {
		metrics = proger.NewMetricsRegistry()
	}
	if *qualityPath != "" {
		quality = proger.NewQualityRecorder()
	}
	var lvRun *proger.LiveRun
	if *statusAddr != "" {
		if metrics == nil {
			metrics = proger.NewMetricsRegistry()
		}
		lvRun = proger.NewLiveRun(nil)
		srv, err := proger.ServeStatus(*statusAddr, lvRun, metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "status listening on http://%s/\n", srv.Addr())
	}

	// The Table-I dataset: nine people records, six real-world people.
	ds, gt := proger.GeneratePeople()
	fmt.Println("Input entities:")
	for _, e := range ds.Entities {
		fmt.Printf("  e%d: %-18s %s\n", e.ID, e.Attr(0), e.Attr(1))
	}

	// Blocking as in the paper's running example: X keys on name
	// prefixes (2, then 3, then 5 chars); Y keys on the state.
	// X dominates Y (§IV-A discusses why: state blocks are few and
	// large, so their duplicate density is low).
	families := proger.Families{
		{Name: "X", Attr: 0, PrefixLens: []int{2, 3, 5}, Index: 1},
		{Name: "Y", Attr: 1, PrefixLens: []int{2}, Index: 2},
	}

	// The resolve function: weighted edit similarity on name and state.
	matcher := proger.MustMatcher(0.75,
		proger.Rule{Attr: 0, Weight: 0.8, Kind: proger.EditDistance},
		proger.Rule{Attr: 1, Weight: 0.2, Kind: proger.EditDistance},
	)

	opts := proger.Options{
		Families:        families,
		Matcher:         matcher,
		Mechanism:       proger.SN, // Sorted Neighbor with the [5] hint
		Policy:          proger.CiteSeerXPolicy(),
		Machines:        2,
		SlotsPerMachine: 2,
		Scheduler:       proger.SchedulerOurs,
		// Host settings: how the run uses this machine, never what it finds.
		Host: proger.Host{Trace: tracer, Metrics: metrics, Quality: quality, Live: lvRun},
	}
	// Chaos knob: deterministic fault injection. The attempt runtime
	// retries, times out, and speculates around injected faults — the
	// output below is identical with or without it.
	if *faultRate > 0 {
		opts.Faults = proger.NewSeededFaults(*faultSeed, *faultRate)
		opts.Retry = proger.RetryPolicy{MaxRetries: *maxRetries, Speculation: true}
	}
	// Out-of-core knob: a memory budget forces shuffle buffers through
	// run files on disk. Like -fault-rate, the output below
	// is identical with or without it.
	opts.MemBudget = *memBudget
	opts.SpillDir = *spillDir
	res, err := proger.Resolve(ds, opts)
	lvRun.Finish(err)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nDuplicates, in discovery order (time = simulated cost units):")
	for _, ev := range res.EventsAgainst(gt.IsDup) {
		verdict := "correct"
		if !ev.TrueDup {
			verdict = "FALSE POSITIVE"
		}
		fmt.Printf("  t=%7.1f  %v  (%s)\n", ev.Time, ev.Pair, verdict)
	}

	curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
	fmt.Printf("\nFinal recall: %.2f  (found %d of %d true pairs)\n",
		curve.FinalRecall(), len(res.Duplicates), gt.NumDupPairs())
	fmt.Printf("Total simulated time: %.0f cost units (job 1: %.0f, job 2: %.0f)\n",
		res.TotalTime, res.Job1.End, res.TotalTime-res.Job1.End)

	if *tracePath != "" {
		writeExport(*tracePath, tracer.WriteChromeTrace)
		fmt.Printf("Wrote %d trace spans to %s\n", tracer.Len(), *tracePath)
	}
	if *metricsPath != "" {
		writeExport(*metricsPath, metrics.WritePrometheus)
		fmt.Printf("Wrote metrics to %s\n", *metricsPath)
	}
	if *qualityPath != "" {
		exp := quality.Export(proger.CostUnits(*sampleEvery))
		writeExport(*qualityPath, exp.WriteJSON)
		fmt.Printf("Wrote quality telemetry to %s (AUC %.3f)\n", *qualityPath, exp.Curve.AUC)
	}
}

func writeExport(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
