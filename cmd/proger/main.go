// Command proger runs parallel progressive entity resolution on a TSV
// dataset (or a generated synthetic one) and emits the identified
// duplicate pairs with their simulated discovery timestamps.
//
// A minimal run on generated data:
//
//	proger -generate publications -n 20000 -machines 10
//
// A custom dataset with explicit blocking and matching configuration:
//
//	proger -input people.tsv \
//	    -block name:2,3,5 -block state:2 \
//	    -rule name:edit:0.8 -rule state:edit:0.2 -match-threshold 0.75 \
//	    -mechanism sn -machines 4 -out pairs.tsv
//
// With -truth the tool also prints the duplicate-recall curve.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"proger"
	"proger/internal/clustering"
	"proger/internal/costmodel"
	"proger/internal/datagen"
	"proger/internal/dist"
	"proger/internal/experiments"
	"proger/internal/obs/quality"
	"proger/internal/report"
)

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ";") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// driver is how this process carries a run out and what it writes,
// never the run's answer: the output and host flags bindDriver defines.
type driver struct {
	out, clusters, segments, trace, metricsOut, qualityOut, status, events string
	memBudget, spillDir, listen, connect                                   string
	report, progress, master, worker                                       bool
	alpha, sampleEvery                                                     float64
	curve, dist, workerDie                                                 int
	leaseTTL                                                               time.Duration
}

// bindDriver defines the output and host flags on fs.
func bindDriver(fs *flag.FlagSet) *driver {
	d := &driver{}
	fs.StringVar(&d.out, "out", "", "output path for duplicate pairs (default stdout)")
	fs.StringVar(&d.clusters, "clusters", "", "also write transitive-closure clusters to this path")
	fs.BoolVar(&d.report, "report", false, "print per-job diagnostics (summary, timeline, counters)")
	fs.StringVar(&d.segments, "segments", "", "write α-interval incremental result files to this directory")
	fs.Float64Var(&d.alpha, "alpha", 500, "segment interval in cost units for -segments")
	fs.IntVar(&d.curve, "curve", 12, "recall-curve points to print when -truth is given")
	fs.StringVar(&d.trace, "trace", "", "write a Chrome trace-event JSON timeline to this path (load in Perfetto / chrome://tracing)")
	fs.StringVar(&d.metricsOut, "metrics-out", "", "write run metrics in Prometheus text format to this path")
	fs.StringVar(&d.qualityOut, "quality-out", "", "write quality telemetry (progressive-recall curve + calibration report) to this path; a .csv suffix writes the curve as CSV, anything else the full export as JSON")
	fs.Float64Var(&d.sampleEvery, "sample-every", 0, "progressive-recall sampling interval in cost units for -quality-out (0 = total time / 64)")
	fs.StringVar(&d.status, "status", "", "serve the live status server on this address while the run executes: /healthz, /progress, /tasks, /membudget, /metrics, /debug/pprof (\":0\" picks a free port)")
	fs.StringVar(&d.events, "events", "", "write a structured JSON event log (one event per line: run/job lifecycle, task transitions, worker registrations and leases) to this path; \"-\" writes to stderr")
	fs.BoolVar(&d.progress, "progress", false, "render a single-line live progress indicator on stderr while the run executes")
	fs.StringVar(&d.memBudget, "mem-budget", "", "cap tracked shuffle memory at this size (e.g. 64M, 2G; K/M/G suffixes), spilling runs to checksummed run files when exceeded; results are identical")
	fs.StringVar(&d.spillDir, "spill-dir", "", "directory for spill files (default system temp; only used with -mem-budget)")
	fs.IntVar(&d.dist, "dist", 0, "single-machine distributed run: fork this many worker processes and lease every task execution to them over RPC; results are byte-identical to an in-process run")
	fs.BoolVar(&d.master, "master", false, "run as a distributed master: serve task leases on -listen, execute nothing locally; each worker (-worker -connect ADDR, no resolution flag) receives this run when it registers")
	fs.BoolVar(&d.worker, "worker", false, "run as a distributed worker: connect to the master at -connect, resolve the run it hands over, execute leased tasks, write no output; takes no resolution flag")
	fs.StringVar(&d.listen, "listen", "127.0.0.1:0", "master RPC endpoint: host:port, or unix:/path for a unix socket")
	fs.StringVar(&d.connect, "connect", "", "master endpoint for -worker, in -listen notation")
	fs.DurationVar(&d.leaseTTL, "lease-ttl", 0, "declare a worker dead after this long without a heartbeat and re-lease its outstanding tasks (default 10s)")
	fs.IntVar(&d.workerDie, "worker-die-after", 0, "worker-loss harness: a worker exits abruptly as it takes one lease more than this; in -dist mode, applied to the first forked worker")
	return d
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("proger: ")

	r := bindRun(flag.CommandLine)
	d := bindDriver(flag.CommandLine)
	flag.Parse()

	if (d.dist > 0 && d.master) || (d.worker && (d.dist > 0 || d.master)) {
		log.Fatal("-dist, -master, and -worker are mutually exclusive")
	}
	distActive := d.dist > 0 || d.master || d.worker
	if d.worker && d.connect == "" {
		log.Fatal("-worker requires -connect ADDR")
	}
	if d.connect != "" && !d.worker {
		log.Fatal("-connect only applies to -worker mode")
	}
	if distActive && d.memBudget != "" {
		log.Fatal("distributed modes are incompatible with -mem-budget (run files are the out-of-core path)")
	}
	if err := d.refuseUnread(flag.CommandLine, r); err != nil {
		log.Fatal(err)
	}
	var (
		tracer  *proger.Tracer
		metrics *proger.MetricsRegistry
		qrec    *proger.QualityRecorder
	)
	if d.trace != "" {
		tracer = proger.NewTracer()
	}
	if d.metricsOut != "" || d.report || d.status != "" || d.worker {
		// Workers always keep a registry: its counters feed the telemetry
		// snapshot each heartbeat ships to the master's fleet table.
		metrics = proger.NewMetricsRegistry()
	}
	if d.qualityOut != "" || d.report || d.status != "" {
		qrec = proger.NewQualityRecorder()
	}

	var elog *proger.LiveEventLog
	var eventsSink *bufio.Writer
	if d.events != "" {
		w := io.Writer(os.Stderr)
		if d.events != "-" {
			f, err := os.Create(d.events)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			eventsSink = bufio.NewWriter(f)
			w = eventsSink
		}
		elog = proger.NewLiveEventLog(w)
	}
	// A worker without its own -events file still emits: into a relay
	// log whose lines ship to the master with each heartbeat and merge
	// into the master's -events file under this worker's proc identity.
	// (If the master keeps no event log, drained lines are discarded.)
	var relay *proger.LiveEventLog
	if d.worker && elog == nil {
		relay = proger.NewRelayEventLog(0)
	}
	var lvRun *proger.LiveRun
	if d.status != "" || elog != nil || relay != nil || d.progress || d.report {
		// -report also wants a live hub: the run summary's membudget
		// pressure section reads the attached manager's snapshot.
		runLog := elog
		if relay != nil {
			runLog = relay
		}
		lvRun = proger.NewLiveRun(runLog)
	}
	var statusSrv *proger.StatusServer
	if d.status != "" {
		srv, err := proger.ServeStatus(d.status, lvRun, metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		statusSrv = srv
		fmt.Fprintf(os.Stderr, "proger: status listening on http://%s/\n", srv.Addr())
	}

	// A worker joins its master first: the master hands over the run.
	var (
		transport proger.TaskTransport
		dworker   *dist.Worker
	)
	if d.worker {
		w, werr := dist.NewWorker(dist.WorkerOptions{
			Connect:    d.connect,
			OnLease:    dieAfter(d.workerDie),
			Relay:      relay,
			Metrics:    metrics,
			StatusAddr: statusSrv.Addr(),
		})
		if werr != nil {
			log.Fatal(werr)
		}
		dworker, transport = w, w
		if r, werr = decodeRun(w.Run()); werr != nil {
			w.Close()
			log.Fatalf("the master's run: %v", werr)
		}
		r.Truth = "" // recall is the master's to report
	}

	budgetBytes, sizeErr := parseSize(d.memBudget)
	if sizeErr != nil {
		log.Fatal(sizeErr)
	}
	if budgetBytes > 0 && metrics == nil {
		// The budget pressure summary reads registry gauges, so a budget
		// implies a registry even when no metrics output was requested.
		metrics = proger.NewMetricsRegistry()
	}

	wl := loadWorkload(r)
	ds, gt := wl.DS, wl.GT

	mode := "pipeline"
	if r.Basic {
		mode = "basic"
	}
	elog.Emit(proger.EventRunStart,
		proger.EventKV("entities", ds.Len()),
		proger.EventKV("mode", mode),
		proger.EventKV("machines", r.Machines),
		proger.EventKV("slots", r.Slots))
	renderer := (*proger.LiveProgressRenderer)(nil)
	if d.progress {
		renderer = proger.StartLiveProgress(os.Stderr, lvRun, 0)
	}

	// Distributed transport. The master is created only after run.start
	// is emitted, so every worker.register/lease event lands inside the
	// run envelope; it is closed again before run.end.
	var (
		dmaster *dist.Master
		workers *fleet
	)
	if d.master || d.dist > 0 {
		encoded, merr := r.encode()
		if merr != nil {
			log.Fatalf("encoding the run for its workers: %v", merr)
		}
		m, merr := dist.NewMaster(dist.MasterOptions{
			Listen:   d.listen,
			LeaseTTL: d.leaseTTL,
			Metrics:  metrics,
			Log:      elog,
			Run:      encoded,
		})
		if merr != nil {
			log.Fatal(merr)
		}
		dmaster, transport = m, m
		// The master's fleet table backs the status server's /fleet
		// endpoint and the -report fleet summary.
		lvRun.AttachFleet(m)
		if d.master {
			fmt.Fprintf(os.Stderr, "proger: master serving task leases on %s\n", m.Addr())
		}
		workers = forkWorkers(d.dist, m.Addr(), d.workerDie, d.status != "")
	}

	var (
		res *proger.Result
		err error
	)
	host := proger.Host{
		Transport: transport,
		Trace:     tracer,
		Metrics:   metrics,
		Quality:   qrec,
		Live:      lvRun,
		MemBudget: budgetBytes,
		SpillDir:  d.spillDir,
	}
	if r.Basic {
		opts := wl.BasicOptions(r.Machines, r.Window, r.Popcorn)
		opts.SlotsPerMachine, opts.Host = r.Slots, host
		res, err = proger.ResolveBasic(ds, opts)
	} else {
		opts := wl.Options(r.Machines, pickScheduler(r.Scheduler))
		opts.SlotsPerMachine, opts.Host = r.Slots, host
		res, err = proger.Resolve(ds, opts)
	}
	lvRun.Finish(err)
	renderer.Stop()
	// Wind the fleet down before run.end so every distributed event
	// precedes it. Forked children are reaped first — they exit on
	// their own once their drivers fetch the final broadcast — so the
	// master's Close drain (which waits for worker goodbyes) is
	// instant; a worker says goodbye and disconnects.
	if dmaster != nil {
		workers.wait()
		dmaster.Close()
	}
	if dworker != nil {
		dworker.Close()
	}
	if err != nil {
		elog.Emit(proger.EventRunEnd, proger.EventKV("error", err.Error()))
		flushEvents(eventsSink)
		log.Fatal(err)
	}
	elog.Emit(proger.EventRunEnd,
		proger.EventKV("dups", len(res.Duplicates)),
		proger.EventKV("total_cost", res.TotalTime))
	flushEvents(eventsSink)

	if d.worker {
		// A worker computes the same Result as the master (it resolves
		// the master's run) but the master's process owns every output.
		return
	}

	writePairs(d.out, res)
	if d.clusters != "" {
		writeClusters(d.clusters, res, ds.Len())
	}
	fmt.Fprintf(os.Stderr, "proger: %d duplicate pairs in %.0f simulated cost units\n",
		len(res.Duplicates), res.TotalTime)
	if budgetBytes > 0 && metrics != nil {
		fmt.Fprintf(os.Stderr, "proger: memory budget %d B: peak %.0f B tracked, %.0f B charged, %d forced spills (%.0f B spilled)\n",
			budgetBytes,
			metrics.Gauge(proger.GaugeMemBudgetPeakBytes).Value(),
			metrics.Gauge(proger.GaugeMemBudgetChargedBytes).Value(),
			metrics.Counter(proger.CounterBudgetForcedSpills).Value(),
			float64(metrics.Counter(proger.CounterBudgetSpilledBytes).Value()))
	}
	if d.report {
		printReport(res)
		if err := report.WriteRunSummary(os.Stderr, tracer, metrics, qrec, lvRun.Budget(), lvRun.Fleet()); err != nil {
			log.Fatal(err)
		}
	}
	if d.trace != "" {
		writeFileWith(d.trace, tracer.WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "proger: wrote %d trace spans to %s\n", tracer.Len(), d.trace)
	}
	if d.metricsOut != "" {
		writeFileWith(d.metricsOut, metrics.WritePrometheus)
		fmt.Fprintf(os.Stderr, "proger: wrote metrics to %s\n", d.metricsOut)
	}
	if d.qualityOut != "" {
		exp := qrec.Export(proger.CostUnits(d.sampleEvery))
		if strings.HasSuffix(d.qualityOut, ".csv") {
			writeFileWith(d.qualityOut, exp.Curve.WriteCSV)
		} else {
			writeFileWith(d.qualityOut, exp.WriteJSON)
		}
		fmt.Fprintf(os.Stderr, "proger: wrote quality telemetry (%d curve points, %d calibration rows, AUC %.3f) to %s\n",
			len(exp.Curve.Points), len(exp.Calibration.Blocks), exp.Curve.AUC, d.qualityOut)
	}
	if d.segments != "" {
		nFiles, err := report.WriteSegments(res.Job2, d.alpha, d.segments)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "proger: wrote %d incremental segment files to %s\n", nFiles, d.segments)
	}

	if gt != nil {
		curve := proger.BuildCurve(res.EventsAgainst(gt.IsDup), gt.NumDupPairs(), res.TotalTime)
		fmt.Fprintf(os.Stderr, "proger: final duplicate recall %.3f (of %d true pairs)\n",
			curve.FinalRecall(), gt.NumDupPairs())
		grid := quality.Grid(res.TotalTime, d.curve)
		for i, recall := range curve.Sample(grid) {
			fmt.Fprintf(os.Stderr, "proger:   t=%12.0f  recall=%.3f\n", grid[i], recall)
		}
	}
}

// loadWorkload reads -input (and -truth), resolved with SN, the
// CiteSeerX policy and the analytic model, or generates the catalogue
// workload -generate names; then -block and -rule replace its families
// and matcher, and -mechanism its mechanism. Unless the run is -basic,
// it trains the catalogue's model, if it has one, for the families the
// run uses.
func loadWorkload(r *run) *experiments.Workload {
	w := &experiments.Workload{Mech: proger.SN, Policy: proger.CiteSeerXPolicy()}
	var err error
	switch {
	case r.Input != "" && r.Generate != "":
		log.Fatal("-input and -generate are mutually exclusive")
	case r.Input != "":
		f, err := os.Open(r.Input)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if w.DS, err = proger.ReadTSV(f); err != nil {
			log.Fatal(err)
		}
		if r.Truth != "" {
			tf, err := os.Open(r.Truth)
			if err != nil {
				log.Fatal(err)
			}
			defer tf.Close()
			if w.GT, err = datagen.ReadGroundTruth(tf); err != nil {
				log.Fatal(err)
			}
		}
	case r.Generate != "":
		if w, err = experiments.Generate(r.Generate, r.N, r.Seed); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("need -input FILE or -generate %s", strings.Join(experiments.Names(), "|"))
	}
	if len(r.Blocks) > 0 {
		w.Fams = buildFamilies(w.DS, r.Blocks)
	} else if w.Fams == nil {
		log.Fatal("custom datasets need at least one -block attr:len1,len2,...")
	}
	if len(r.Rules) > 0 {
		w.Matcher = buildMatcher(w.DS, r.Rules, r.Threshold)
	} else if w.Matcher == nil {
		log.Fatal("custom datasets need at least one -rule attr:kind:weight")
	}
	if r.Mechanism != "" {
		w.Mech = pickMechanism(r.Mechanism)
	}
	if !r.Basic && r.Generate != "" {
		w.Train(r.N, r.Seed)
	}
	return w
}

// buildFamilies parses -block specs against ds's schema.
func buildFamilies(ds *proger.Dataset, blocks stringList) proger.Families {
	fams := make(proger.Families, 0, len(blocks))
	for i, spec := range blocks {
		attr, rest, ok := strings.Cut(spec, ":")
		if !ok {
			log.Fatalf("bad -block %q (want attr:len1,len2,... or attr:soundex:len1,...)", spec)
		}
		idx := ds.Schema.Index(attr)
		if idx < 0 {
			log.Fatalf("-block %q: attribute %q not in schema %v", spec, attr, ds.Schema.Attributes)
		}
		kind := proger.KeyPrefix
		if kindName, lensPart, hasKind := strings.Cut(rest, ":"); hasKind {
			switch kindName {
			case "prefix":
				kind = proger.KeyPrefix
			case "soundex":
				kind = proger.KeySoundex
			default:
				log.Fatalf("-block %q: unknown key kind %q (want prefix or soundex)", spec, kindName)
			}
			rest = lensPart
		}
		var lens []int
		for _, p := range strings.Split(rest, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 {
				log.Fatalf("bad -block prefix length %q", p)
			}
			lens = append(lens, v)
		}
		fams = append(fams, &proger.Family{
			Name:       fmt.Sprintf("F%d(%s)", i+1, attr),
			Attr:       idx,
			PrefixLens: lens,
			Index:      i + 1,
			Kind:       kind,
		})
	}
	if err := fams.Validate(); err != nil {
		log.Fatal(err)
	}
	return fams
}

// buildMatcher parses -rule specs against ds's schema.
func buildMatcher(ds *proger.Dataset, rules stringList, threshold float64) *proger.Matcher {
	parsed := make([]proger.Rule, 0, len(rules))
	for _, spec := range rules {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 && len(parts) != 4 {
			log.Fatalf("bad -rule %q (want attr:kind:weight[:maxchars])", spec)
		}
		idx := ds.Schema.Index(parts[0])
		if idx < 0 {
			log.Fatalf("-rule %q: attribute %q not in schema %v", spec, parts[0], ds.Schema.Attributes)
		}
		var kind proger.SimKind
		switch parts[1] {
		case "edit":
			kind = proger.EditDistance
		case "exact":
			kind = proger.ExactMatch
		case "jaro":
			kind = proger.JaroWinklerSim
		case "jaccard":
			kind = proger.JaccardQ2
		case "cosine":
			kind = proger.TokenCosine
		default:
			log.Fatalf("-rule %q: unknown kind %q", spec, parts[1])
		}
		weight, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			log.Fatalf("-rule %q: bad weight", spec)
		}
		rule := proger.Rule{Attr: idx, Kind: kind, Weight: weight}
		if len(parts) == 4 {
			mc, err := strconv.Atoi(parts[3])
			if err != nil || mc < 1 {
				log.Fatalf("-rule %q: bad maxchars", spec)
			}
			rule.MaxChars = mc
		}
		parsed = append(parsed, rule)
	}
	m, err := proger.NewMatcher(threshold, parsed...)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func pickMechanism(name string) proger.Mechanism {
	switch name {
	case "sn":
		return proger.SN
	case "psnm":
		return proger.PSNM
	}
	log.Fatalf("unknown mechanism %q (want sn or psnm)", name)
	return nil
}

func pickScheduler(name string) proger.SchedulerKind {
	switch name {
	case "ours":
		return proger.SchedulerOurs
	case "nosplit":
		return proger.SchedulerNoSplit
	case "lpt":
		return proger.SchedulerLPT
	}
	log.Fatalf("unknown scheduler %q (want ours, nosplit, or lpt)", name)
	return proger.SchedulerOurs
}

// parseSize parses a positive byte size with an optional K/M/G suffix
// ("64M", "2G", "512"). Empty means no budget.
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num, mult := s, int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		num, mult = s[:len(s)-1], 1<<10
	case 'm', 'M':
		num, mult = s[:len(s)-1], 1<<20
	case 'g', 'G':
		num, mult = s[:len(s)-1], 1<<30
	}
	v, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad -mem-budget %q (want a positive size like 512K, 64M, or 2G)", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad -mem-budget %q: more bytes than an int64 holds", s)
	}
	return v * mult, nil
}

func printReport(res *proger.Result) {
	if res.Job1 != nil {
		fmt.Fprint(os.Stderr, report.Summarize("job1-progressive-blocking", res.Job1).Render())
	}
	if res.Job2 != nil {
		fmt.Fprint(os.Stderr, report.Summarize("job2-progressive-resolution", res.Job2).Render())
		fmt.Fprint(os.Stderr, report.Timeline(res.Job2, 64))
	}
	if res.Schedule != nil {
		costs := map[string]costmodel.Units{}
		for _, blocks := range res.Schedule.TaskBlocks {
			for _, b := range blocks {
				costs[b.ID.String()] = b.CostEst
			}
		}
		fmt.Fprintln(os.Stderr, "most expensive blocks:")
		fmt.Fprint(os.Stderr, report.TopBlocks(costs, 8))
	}
}

// writeFileWith creates path and streams write(f) into it.
func writeFileWith(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		log.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// dieAfter returns the -worker-die-after hook: exit(1) with a lease
// taken but never completed, so the master must detect the loss via
// heartbeat expiry and re-lease the task elsewhere.
func dieAfter(n int) func(int) {
	if n <= 0 {
		return nil
	}
	return func(taken int) {
		if taken > n {
			os.Exit(1)
		}
	}
}

// forkWorkers starts n copies of this binary in -worker mode against
// addr; each receives the master's run when it registers. dieAt > 0 arms the
// first worker's -worker-die-after harness. withStatus gives each
// child its own status server on a free port (the address lands in
// the master's /fleet via registration). Each child's stderr is
// prefixed "w<i>: " by fork ordinal — normally the master-assigned
// worker ID too, though a registration race can order IDs differently.
func forkWorkers(n int, addr string, dieAt int, withStatus bool) *fleet {
	f := &fleet{}
	if n <= 0 {
		return f
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		args := []string{"-worker", "-connect=" + addr}
		if i == 0 && dieAt > 0 {
			args = append(args, fmt.Sprintf("-worker-die-after=%d", dieAt))
		}
		if withStatus {
			args = append(args, "-status=127.0.0.1:0")
		}
		c := exec.Command(exe, args...)
		pr, pw, err := os.Pipe()
		if err != nil {
			log.Fatal(err)
		}
		c.Stderr = pw
		if err := c.Start(); err != nil {
			log.Fatal(err)
		}
		pw.Close()
		f.relay(pr, os.Stderr, fmt.Sprintf("w%d: ", i+1))
		f.children = append(f.children, c)
	}
	return f
}

// fleet is the worker processes forkWorkers started and the goroutines
// relaying their stderr.
type fleet struct {
	children []*exec.Cmd
	relays   sync.WaitGroup
}

// relay copies r to w through prefixLines on a goroutine that wait
// waits for.
func (f *fleet) relay(r io.ReadCloser, w io.Writer, prefix string) {
	f.relays.Add(1)
	go func() {
		defer f.relays.Done()
		prefixLines(r, w, prefix)
	}()
}

// wait reaps the children, then waits until their relays have copied
// every line the children wrote: a failing worker's last lines, the
// ones that explain the failure, come just before its pipe closes.
func (f *fleet) wait() {
	for _, c := range f.children {
		c.Wait() // exit statuses are the fleet's business, not ours
	}
	f.relays.Wait()
}

// prefixLines copies r to w line by line with a prefix, so the fleet's
// interleaved chatter stays attributable.
func prefixLines(r io.ReadCloser, w io.Writer, prefix string) {
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fmt.Fprintf(w, "%s%s\n", prefix, sc.Bytes())
	}
}

// flushEvents flushes the buffered -events sink, if any.
func flushEvents(w *bufio.Writer) {
	if w == nil {
		return
	}
	if err := w.Flush(); err != nil {
		log.Printf("event log: %v", err)
	}
}

func writeClusters(path string, res *proger.Result, n int) {
	writeFileWith(path, func(w io.Writer) error { return clustering.WriteClusters(w, res.Clusters(n)) })
}

// writePairs writes the found pairs in discovery order to out, or to
// stdout when out is empty.
func writePairs(out string, res *proger.Result) {
	write := func(w io.Writer) error {
		fmt.Fprintln(w, "#lo\thi\ttime")
		for _, ev := range res.Events {
			fmt.Fprintf(w, "%d\t%d\t%.1f\n", ev.Pair.Lo, ev.Pair.Hi, ev.Time)
		}
		return nil // (a buffered writer's error surfaces at Flush)
	}
	if out != "" {
		writeFileWith(out, write)
		return
	}
	bw := bufio.NewWriter(os.Stdout)
	write(bw)
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
}
