package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"proger"
	"proger/internal/mapreduce"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// fleet spins up a master plus in-process workers, runs the full
// pipeline through every process's driver (the lockstep contract), and
// returns the master's artifacts.
type fleet struct {
	t          *testing.T
	master     *Master
	reg        *obs.Registry
	masterLive *live.Run
	exec       proger.ExecutionMode // every process's Execution (ignored)
	workers    []*Worker
	wg         sync.WaitGroup
	mu         sync.Mutex
	werrs      []error
}

func newFleet(t *testing.T, ttl time.Duration) *fleet {
	return newFleetOpts(t, MasterOptions{LeaseTTL: ttl})
}

// newFleetOpts is newFleet with the full MasterOptions surface exposed
// (the observability tests attach an event log). Listen and Metrics
// default when unset.
func newFleetOpts(t *testing.T, mo MasterOptions) *fleet {
	t.Helper()
	if mo.Listen == "" {
		mo.Listen = "127.0.0.1:0"
	}
	if mo.Metrics == nil {
		mo.Metrics = obs.NewRegistry()
	}
	m, err := NewMaster(mo)
	if err != nil {
		t.Fatal(err)
	}
	return &fleet{t: t, master: m, reg: mo.Metrics}
}

func baseOptions(faultRate float64) proger.Options {
	opts := proger.Options{
		Machines:        2,
		SlotsPerMachine: 2,
		Policy:          proger.CiteSeerXPolicy(),
		Host:            proger.Host{Workers: 2},
	}
	if faultRate > 0 {
		opts.Faults = proger.NewSeededFaults(11, faultRate)
		opts.Retry = proger.RetryPolicy{MaxRetries: 3, Speculation: true}
	}
	return opts
}

// publications is the catalogue's publications dataset on n entities
// from seed 1.
func publications(t *testing.T, n int) *proger.Dataset {
	t.Helper()
	ds, _, _, err := proger.Workload("publications", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func fillDataset(ds *proger.Dataset, opts *proger.Options) {
	opts.Families = proger.CiteSeerXFamilies(ds.Schema)
	opts.Matcher = proger.MustMatcher(0.75,
		proger.Rule{Attr: ds.Schema.Index("title"), Weight: 0.6, Kind: proger.EditDistance},
		proger.Rule{Attr: ds.Schema.Index("venue"), Weight: 0.4, Kind: proger.EditDistance},
	)
	opts.Mechanism = proger.SN
}

// addWorker starts one worker process-equivalent: a Worker transport
// plus its own full driver run with identical resolution options.
// Driver errors are recorded unless mayFail (a worker the test kills).
func (f *fleet) addWorker(ds *proger.Dataset, faultRate float64, wopts WorkerOptions, mayFail bool) *Worker {
	f.t.Helper()
	wopts.Connect = f.master.Addr()
	w, err := NewWorker(wopts)
	if err != nil {
		f.t.Fatal(err)
	}
	f.workers = append(f.workers, w)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		opts := baseOptions(faultRate)
		fillDataset(ds, &opts)
		opts.Transport = w
		opts.Execution = f.exec
		if wopts.Relay != nil {
			// A relay-equipped worker publishes its live introspection
			// into the relay log, exactly as cmd/proger wires a forked
			// worker process.
			opts.Live = live.NewRun(wopts.Relay)
		}
		_, err := proger.Resolve(ds, opts)
		if err != nil && !mayFail {
			f.mu.Lock()
			f.werrs = append(f.werrs, err)
			f.mu.Unlock()
		}
	}()
	return w
}

// run drives the master's pipeline, closes the fleet down, and
// returns the master's artifacts.
func (f *fleet) run(ds *proger.Dataset, faultRate float64) (*proger.Result, *proger.Tracer, *proger.QualityRecorder) {
	f.t.Helper()
	return f.wait(f.start(ds, faultRate))
}

// masterRun is the master's pipeline outcome and artifacts.
type masterRun struct {
	res *proger.Result
	tr  *proger.Tracer
	q   *proger.QualityRecorder
	err error
}

// start drives the master's pipeline in the background; wait collects
// it.
func (f *fleet) start(ds *proger.Dataset, faultRate float64) <-chan masterRun {
	opts := baseOptions(faultRate)
	fillDataset(ds, &opts)
	opts.Transport = f.master
	opts.Execution = f.exec
	opts.Trace = proger.NewTracer()
	opts.Quality = proger.NewQualityRecorder()
	opts.Live = f.masterLive
	done := make(chan masterRun, 1)
	go func() {
		res, err := proger.Resolve(ds, opts)
		done <- masterRun{res, opts.Trace, opts.Quality, err}
	}()
	return done
}

// wait waits for the master's pipeline, closes the fleet down, and
// returns the master's artifacts.
func (f *fleet) wait(done <-chan masterRun) (*proger.Result, *proger.Tracer, *proger.QualityRecorder) {
	f.t.Helper()
	m := <-done
	f.shutdown()
	if m.err != nil {
		f.t.Fatalf("master resolve: %v", m.err)
	}
	return m.res, m.tr, m.q
}

func (f *fleet) shutdown() {
	f.t.Helper()
	// Worker drivers first (they need the master alive to fetch final
	// broadcasts), then goodbyes, then the master's drain — which is
	// instant once every worker has departed.
	f.wg.Wait()
	for _, w := range f.workers {
		w.Close()
	}
	f.master.Close()
	for _, werr := range f.werrs {
		f.t.Errorf("worker resolve: %v", werr)
	}
}

// localRun is the single-process determinism reference.
func localRun(t *testing.T, ds *proger.Dataset, faultRate float64) (*proger.Result, *proger.Tracer, *proger.QualityRecorder) {
	t.Helper()
	opts := baseOptions(faultRate)
	fillDataset(ds, &opts)
	opts.Trace = proger.NewTracer()
	opts.Quality = proger.NewQualityRecorder()
	res, err := proger.Resolve(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, opts.Trace, opts.Quality
}

func resultBytes(t *testing.T, res *proger.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, ev := range res.Events {
		fmt.Fprintf(&b, "%d\t%d\t%.3f\n", ev.Pair.Lo, ev.Pair.Hi, ev.Time)
	}
	fmt.Fprintf(&b, "total=%.3f dups=%d\n", res.TotalTime, len(res.Duplicates))
	return b.Bytes()
}

func traceBytes(t *testing.T, tr *proger.Tracer) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func qualityBytes(t *testing.T, q *proger.QualityRecorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := q.Export(0).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func assertIdentical(t *testing.T, what string, local, dist []byte) {
	t.Helper()
	if !bytes.Equal(local, dist) {
		t.Errorf("%s bytes diverge between local and distributed runs (local %d B, dist %d B)",
			what, len(local), len(dist))
	}
}

// TestFleetByteIdentity: a master plus two worker drivers produce
// Result, trace, and quality bytes identical to a single-process run,
// at either value of the ignored Execution field (the benchmark still
// sets the barrier value). The workers run without their own trace/quality
// sinks, so span and quality collection rides entirely on the
// spec-union dummy sinks. A clean run grants one lease per map and
// reduce task: the reduce lease merges its own input, so no shuffle is
// leased.
func TestFleetByteIdentity(t *testing.T) {
	ds := publications(t, 600)
	lres, ltr, lq := localRun(t, ds, 0)

	for _, exec := range []proger.ExecutionMode{0, 1} {
		t.Run(fmt.Sprintf("mode=%d", exec), func(t *testing.T) {
			f := newFleet(t, 0)
			f.exec = exec
			f.addWorker(ds, 0, WorkerOptions{}, false)
			f.addWorker(ds, 0, WorkerOptions{}, false)
			res, tr, q := f.run(ds, 0)

			assertIdentical(t, "result", resultBytes(t, lres), resultBytes(t, res))
			assertIdentical(t, "trace", traceBytes(t, ltr), traceBytes(t, tr))
			assertIdentical(t, "quality", qualityBytes(t, lq), qualityBytes(t, q))
			if got := f.reg.Counter(mapreduce.CounterDistWorkersRegistered).Value(); got != 2 {
				t.Errorf("workers registered = %d, want 2", got)
			}
			want := 0
			for _, job := range []*mapreduce.Result{res.Job1, res.Job2} {
				want += len(job.MapTaskCosts) + len(job.ReduceTaskCosts)
			}
			if got := f.reg.Counter(mapreduce.CounterDistLeasesGranted).Value(); got != int64(want) {
				t.Errorf("leases granted = %d, want %d (one per map and reduce task)", got, want)
			}
			if got := f.reg.Counter(mapreduce.CounterDistLeasesExpired).Value(); got != 0 {
				t.Errorf("leases expired = %d, want 0 in a clean run", got)
			}
		})
	}
}

// TestFleetByteIdentityUnderFaults: same identity with the simulated
// fault runtime active on every process — injected crashes, retries,
// and speculation are decided on the master, and the attempt history
// must land in the trace exactly as in a local faulty run.
func TestFleetByteIdentityUnderFaults(t *testing.T) {
	ds := publications(t, 600)
	lres, ltr, lq := localRun(t, ds, 0.3)

	f := newFleet(t, 0)
	f.addWorker(ds, 0.3, WorkerOptions{}, false)
	f.addWorker(ds, 0.3, WorkerOptions{}, false)
	res, tr, q := f.run(ds, 0.3)

	assertIdentical(t, "result", resultBytes(t, lres), resultBytes(t, res))
	assertIdentical(t, "trace", traceBytes(t, ltr), traceBytes(t, tr))
	assertIdentical(t, "quality", qualityBytes(t, lq), qualityBytes(t, q))
}

// TestLeaseExpiryOnHeartbeatLoss: a worker registers, takes a lease,
// and goes silent. The master must declare it dead within the TTL,
// expire the lease, re-lease the task to the worker that joins later,
// and still produce the byte-identical Result. Script-driven: the
// test blocks on protocol steps and the run's own completion, never
// asserts after a wall-clock sleep.
func TestLeaseExpiryOnHeartbeatLoss(t *testing.T) {
	ds := publications(t, 400)
	lres, _, _ := localRun(t, ds, 0)

	f := newFleet(t, 200*time.Millisecond)

	// The silent worker speaks the raw protocol: register, then poll
	// until a lease is actually granted, then never call again — no
	// heartbeat, no completion.
	conn, err := net.Dial("tcp", f.master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	silent := rpc.NewClient(conn)
	var reg RegisterReply
	if err := silent.Call(rpcService+".Register", &RegisterArgs{}, &reg); err != nil {
		t.Fatal(err)
	}
	granted := make(chan TaskLease, 1)
	go func() {
		for {
			var rep LeaseReply
			if err := silent.Call(rpcService+".Lease", &LeaseArgs{WorkerID: reg.WorkerID}, &rep); err != nil {
				return
			}
			switch rep.Kind {
			case LeaseTask:
				granted <- rep.Lease
				return
			case LeaseShutdown:
				return
			}
		}
	}()

	// Drive the master in the background so this goroutine can
	// orchestrate: leases start flowing once its driver reaches job 1.
	resCh := make(chan *proger.Result, 1)
	go func() {
		opts := baseOptions(0)
		fillDataset(ds, &opts)
		opts.Transport = f.master
		res, err := proger.Resolve(ds, opts)
		if err != nil {
			t.Errorf("master resolve: %v", err)
		}
		resCh <- res
	}()

	// Only after the silent worker provably holds a lease does the
	// real worker join — the expiry path cannot be skipped.
	lease := <-granted
	if lease.JobSeq != 1 {
		t.Errorf("silent worker leased job %d, want 1", lease.JobSeq)
	}
	f.addWorker(ds, 0, WorkerOptions{}, false)

	res := <-resCh
	f.shutdown()
	if res == nil {
		t.Fatal("master resolve failed")
	}

	assertIdentical(t, "result", resultBytes(t, lres), resultBytes(t, res))
	if got := f.reg.Counter(mapreduce.CounterDistLeasesExpired).Value(); got < 1 {
		t.Errorf("leases expired = %d, want >= 1", got)
	}
	if got := f.reg.Counter(mapreduce.CounterDistWorkersRegistered).Value(); got != 2 {
		t.Errorf("workers registered = %d, want 2", got)
	}
}

// TestWorkerKilledMidRun: one of two workers cuts its connection
// abruptly on its first lease (taken, never completed). The master
// recovers via heartbeat expiry and every artifact stays
// byte-identical. The healthy worker joins only once the doomed one
// holds its lease, so the run cannot finish without that lease
// expiring.
func TestWorkerKilledMidRun(t *testing.T) {
	ds := publications(t, 400)
	lres, ltr, lq := localRun(t, ds, 0)

	f := newFleet(t, 200*time.Millisecond)
	kill := make(chan struct{})
	doomed := f.addWorker(ds, 0, WorkerOptions{Parallel: 1, OnLease: dieOnFirstLease(kill)}, true)
	done := f.start(ds, 0)
	<-kill
	f.addWorker(ds, 0, WorkerOptions{}, false)
	doomed.Kill()
	res, tr, q := f.wait(done)

	assertIdentical(t, "result", resultBytes(t, lres), resultBytes(t, res))
	assertIdentical(t, "trace", traceBytes(t, ltr), traceBytes(t, tr))
	assertIdentical(t, "quality", qualityBytes(t, lq), qualityBytes(t, q))
	if got := f.reg.Counter(mapreduce.CounterDistLeasesExpired).Value(); got < 1 {
		t.Errorf("leases expired = %d, want >= 1", got)
	}
}

// dieOnFirstLease is an OnLease hook for a worker with one lease pump:
// on the first lease it closes kill and never returns, so the lease is
// held until the test kills the worker.
func dieOnFirstLease(kill chan<- struct{}) func(n int) {
	return func(int) {
		close(kill)
		<-make(chan struct{}) // hold the lease forever: this pump is dead
	}
}

// checkMergedLog validates a merged multi-process event log's identity
// invariant: within every process ("" = host, "w<id>" = forwarded
// worker lines), seq counts 1, 2, 3, ... with no gaps regardless of
// how batches interleaved. Returns per-proc line counts.
func checkMergedLog(t *testing.T, data []byte) map[string]int {
	t.Helper()
	seqs := map[string]int{}
	counts := map[string]int{}
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Event string `json:"event"`
			Proc  string `json:"proc"`
			Seq   int    `json:"seq"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("merged log line %d: %v: %s", i+1, err, line)
		}
		if ev.Event == "" {
			t.Fatalf("merged log line %d: missing event name: %s", i+1, line)
		}
		if ev.Seq != seqs[ev.Proc]+1 {
			t.Fatalf("merged log line %d (%s): proc %q seq %d, want %d",
				i+1, ev.Event, ev.Proc, ev.Seq, seqs[ev.Proc]+1)
		}
		seqs[ev.Proc] = ev.Seq
		counts[ev.Proc]++
	}
	return counts
}

// TestFleetObservability: the full observability surface on — master
// event log, worker relay logs, per-process metrics registries — must
// not perturb a single byte of the deterministic artifacts, the
// master's fleet table must reconcile with its own lease counters and
// the workers' self-reports, and the merged event log must hold the
// per-process gap-free seq invariant.
func TestFleetObservability(t *testing.T) {
	ds := publications(t, 600)
	lres, ltr, lq := localRun(t, ds, 0)

	var logBuf bytes.Buffer
	elog := live.NewEventLog(&logBuf)
	f := newFleetOpts(t, MasterOptions{Log: elog})
	f.masterLive = live.NewRun(elog)
	f.masterLive.AttachFleet(f.master)

	wregs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for _, wreg := range wregs {
		f.addWorker(ds, 0, WorkerOptions{
			Relay:   live.NewRelayEventLog(0),
			Metrics: wreg,
		}, false)
	}
	res, tr, q := f.run(ds, 0)

	assertIdentical(t, "result", resultBytes(t, lres), resultBytes(t, res))
	assertIdentical(t, "trace", traceBytes(t, ltr), traceBytes(t, tr))
	assertIdentical(t, "quality", qualityBytes(t, lq), qualityBytes(t, q))

	// Fleet table: both workers present with their goodbye-final
	// telemetry, attribution reconciling with the global lease counters
	// and the workers' own self-reported completions.
	fs := f.master.FleetSnapshot()
	if len(fs.Workers) != 2 || fs.Alive != 0 || fs.Dead != 2 {
		t.Fatalf("fleet after shutdown = %d workers (%d alive, %d dead), want 2 (0 alive, 2 dead)",
			len(fs.Workers), fs.Alive, fs.Dead)
	}
	var granted, expired, done int64
	for _, fw := range fs.Workers {
		granted += fw.LeasesGranted
		expired += fw.LeasesExpired
		done += fw.MapDone + fw.ReduceDone
		if fw.Telemetry == nil {
			t.Fatalf("worker %d: no telemetry snapshot after orderly goodbye", fw.ID)
		}
		if fw.Telemetry.MapTasks != fw.MapDone || fw.Telemetry.ReduceTasks != fw.ReduceDone {
			t.Errorf("worker %d: self-reported %d/%d tasks, master attributed %d/%d",
				fw.ID, fw.Telemetry.MapTasks, fw.Telemetry.ReduceTasks, fw.MapDone, fw.ReduceDone)
		}
		if fw.Telemetry.RPCBytesIn == 0 || fw.Telemetry.RPCBytesOut == 0 {
			t.Errorf("worker %d: zero RPC traffic in telemetry", fw.ID)
		}
		if fw.Telemetry.EventsDropped != 0 {
			t.Errorf("worker %d: dropped %d relay events", fw.ID, fw.Telemetry.EventsDropped)
		}
	}
	if want := f.reg.Counter(mapreduce.CounterDistLeasesGranted).Value(); granted != want {
		t.Errorf("fleet rows account %d leases granted, counter says %d", granted, want)
	}
	if expired != 0 {
		t.Errorf("fleet rows account %d expiries in a clean run", expired)
	}
	if done == 0 {
		t.Error("fleet rows attribute no task completions")
	}
	if calls := f.reg.Counter(mapreduce.CounterDistRPCCalls).Value(); calls == 0 {
		t.Error("master served no instrumented RPCs")
	}

	// Merged event log: host lines plus both workers' forwarded lines,
	// each process's seq gap-free.
	counts := checkMergedLog(t, logBuf.Bytes())
	if counts[""] == 0 {
		t.Error("merged log has no host events")
	}
	for _, proc := range []string{"w1", "w2"} {
		if counts[proc] == 0 {
			t.Errorf("merged log has no forwarded events from %s", proc)
		}
	}
	if !bytes.Contains(logBuf.Bytes(), []byte(`"event":"task.done"`)) {
		t.Error("merged log carries no forwarded task.done events")
	}
}

// TestFleetDeadWorkerPostMortem: a worker killed mid-run must keep its
// fleet row — marked dead, last telemetry snapshot retained — and the
// per-worker lease ledger must reconcile (expiries never exceed
// grants, rows sum to the global counters). Script-driven: the doomed
// worker hangs on its first lease before the healthy worker joins, so
// that lease must expire, and the kill waits until the master provably
// holds the doomed worker's telemetry, so the post-mortem snapshot
// assertion cannot race the first heartbeat.
func TestFleetDeadWorkerPostMortem(t *testing.T) {
	ds := publications(t, 400)
	lres, _, _ := localRun(t, ds, 0)

	var logBuf bytes.Buffer
	elog := live.NewEventLog(&logBuf)
	f := newFleetOpts(t, MasterOptions{LeaseTTL: 200 * time.Millisecond, Log: elog})

	kill := make(chan struct{})
	doomed := f.addWorker(ds, 0, WorkerOptions{
		Parallel: 1,
		Relay:    live.NewRelayEventLog(0),
		Metrics:  obs.NewRegistry(),
		OnLease:  dieOnFirstLease(kill),
	}, true)
	done := f.start(ds, 0)
	<-kill
	f.addWorker(ds, 0, WorkerOptions{
		Relay:   live.NewRelayEventLog(0),
		Metrics: obs.NewRegistry(),
	}, false)
	// Heartbeats keep flowing while the pump hangs; wait for one to
	// land telemetry before cutting the connection.
	for {
		fs := f.master.FleetSnapshot()
		if len(fs.Workers) > 0 && fs.Workers[0].Telemetry != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	doomed.Kill()
	res, _, _ := f.wait(done)
	assertIdentical(t, "result", resultBytes(t, lres), resultBytes(t, res))

	fs := f.master.FleetSnapshot()
	if len(fs.Workers) != 2 {
		t.Fatalf("fleet rows = %d, want 2 (dead workers must stay in the table)", len(fs.Workers))
	}
	dead := fs.Workers[0]
	if dead.ID != 1 || dead.Alive {
		t.Errorf("worker 1 = id %d alive %v, want the killed worker, dead", dead.ID, dead.Alive)
	}
	if dead.Telemetry == nil {
		t.Error("killed worker lost its last telemetry snapshot")
	}
	if dead.LeasesExpired < 1 {
		t.Errorf("killed worker expired %d leases, want >= 1", dead.LeasesExpired)
	}
	var granted, expired int64
	for _, fw := range fs.Workers {
		if fw.LeasesExpired > fw.LeasesGranted {
			t.Errorf("worker %d: %d expiries exceed %d grants", fw.ID, fw.LeasesExpired, fw.LeasesGranted)
		}
		granted += fw.LeasesGranted
		expired += fw.LeasesExpired
	}
	if want := f.reg.Counter(mapreduce.CounterDistLeasesGranted).Value(); granted != want {
		t.Errorf("fleet rows account %d leases granted, counter says %d", granted, want)
	}
	if want := f.reg.Counter(mapreduce.CounterDistLeasesExpired).Value(); expired != want {
		t.Errorf("fleet rows account %d expiries, counter says %d", expired, want)
	}

	// The merged log stays gap-free per process even though the dead
	// worker's tail was never shipped.
	checkMergedLog(t, logBuf.Bytes())
}
