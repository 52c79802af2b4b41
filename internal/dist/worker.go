package dist

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proger/internal/mapreduce"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Connect is the master endpoint, in the Listen notation.
	Connect string
	// Parallel is how many leases this process executes concurrently
	// (default GOMAXPROCS).
	Parallel int
	// OnLease, when non-nil, observes every lease granted to this
	// worker (called with the running count, before execution).
	// cmd/proger's -worker-die-after uses it to kill a worker process
	// after taking — and never completing — its Nth lease.
	OnLease func(n int)
	// Relay, when non-nil, is this process's relay event log
	// (live.NewRelayEventLog): lines it buffers are drained and shipped
	// to the master with each heartbeat, for the merged multi-process
	// event file. If the master keeps no event log, drained lines are
	// discarded locally.
	Relay *live.EventLog
	// Metrics, when non-nil, receives this process's mr.dist.* worker
	// instruments (RPC bytes/calls/latency, lease waits, run-file
	// bytes); its counter values also feed the telemetry snapshot
	// piggybacked on heartbeats.
	Metrics *obs.Registry
	// StatusAddr is this worker's own status-server address, reported
	// at registration so the master's /fleet can link to it. Empty when
	// the worker runs without a status server.
	StatusAddr string
}

// Worker is the lease-executing side of the distributed transport. It
// implements mapreduce.TaskTransport: the process that owns it runs
// the same deterministic driver as the master, executes whatever
// leases the master grants (through its pump goroutines), and fills
// each job's outputs from the master's end-of-job broadcast.
type Worker struct {
	client  *rpc.Client
	conn    net.Conn
	id      int
	ttl     time.Duration
	dataDir string
	run     []byte
	onLease func(n int)

	relay      *live.EventLog
	wantEvents bool

	cIn, cOut, cRPC, cRunR, cRunW *obs.Counter
	hRPC, hWait                   *obs.Histogram

	leaseCount atomic.Int64

	// sendMu serializes heartbeat/goodbye sends so relay batches leave
	// in drain order — the per-process seq in the merged log must land
	// monotonically.
	sendMu sync.Mutex

	// tmu guards the telemetry tallies the pump goroutines accumulate.
	tmu      sync.Mutex
	mapDone  int64
	redDone  int64
	busyCost float64
	busyMs   int64
	idleMs   int64
	waits    int64
	waitMs   int64

	mu      sync.Mutex
	cond    *sync.Cond
	runners map[int]*mapreduce.RemoteRunner
	nextSeq int
	closed  bool
}

// NewWorker connects to the master, registers, and starts heartbeats
// plus the lease pump goroutines. The returned Worker is ready to be
// set as a Config/Options Transport.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	conn, err := dial(opts.Connect)
	if err != nil {
		return nil, fmt.Errorf("dist: connect: %w", err)
	}
	cIn := opts.Metrics.Counter(mapreduce.CounterDistRPCBytesIn)
	cOut := opts.Metrics.Counter(mapreduce.CounterDistRPCBytesOut)
	client := rpc.NewClient(&countingConn{Conn: conn, in: cIn, out: cOut})
	w := &Worker{
		client:  client,
		conn:    conn,
		onLease: opts.OnLease,
		relay:   opts.Relay,
		cIn:     cIn,
		cOut:    cOut,
		cRPC:    opts.Metrics.Counter(mapreduce.CounterDistRPCCalls),
		cRunR:   opts.Metrics.Counter(mapreduce.CounterDistRunBytesRead),
		cRunW:   opts.Metrics.Counter(mapreduce.CounterDistRunBytesWritten),
		hRPC:    opts.Metrics.Histogram(mapreduce.HistDistRPCClientMillis, rpcMillisBuckets...),
		hWait:   opts.Metrics.Histogram(mapreduce.HistDistLeaseWaitMillis, rpcMillisBuckets...),
		runners: map[int]*mapreduce.RemoteRunner{},
	}
	var reg RegisterReply
	if err := w.call("Register", &RegisterArgs{StatusAddr: opts.StatusAddr, Pid: os.Getpid()}, &reg); err != nil {
		client.Close()
		return nil, fmt.Errorf("dist: register: %w", err)
	}
	w.id = reg.WorkerID
	w.ttl = time.Duration(reg.TTLMillis) * time.Millisecond
	w.dataDir = reg.DataDir
	w.run = reg.Run
	w.wantEvents = reg.WantEvents
	w.cond = sync.NewCond(&w.mu)
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	go w.heartbeat()
	for i := 0; i < parallel; i++ {
		go w.pump()
	}
	return w, nil
}

// Run returns the run the master described in MasterOptions.Run, as
// received at registration: this process's driver must resolve it.
func (w *Worker) Run() []byte { return w.run }

// call is the instrumented RPC round-trip every worker-side call goes
// through.
func (w *Worker) call(method string, args, reply any) error {
	t0 := time.Now()
	err := w.client.Call(rpcService+"."+method, args, reply)
	w.cRPC.Inc()
	w.hRPC.Observe(float64(time.Since(t0).Milliseconds()))
	return err
}

// drainEvents takes the relay buffer for shipping. When the master
// keeps no event log the lines are discarded here — draining anyway
// keeps the buffer (and its drop counter) from filling for nothing.
func (w *Worker) drainEvents() []string {
	lines := w.relay.Drain()
	if !w.wantEvents {
		return nil
	}
	return lines
}

// telemetry assembles this process's current self-report.
func (w *Worker) telemetry() live.WorkerTelemetry {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.tmu.Lock()
	tel := live.WorkerTelemetry{
		MapTasks:        w.mapDone,
		ReduceTasks:     w.redDone,
		BusyCostUnits:   w.busyCost,
		BusyMillis:      w.busyMs,
		IdleMillis:      w.idleMs,
		LeaseWaits:      w.waits,
		LeaseWaitMillis: w.waitMs,
	}
	w.tmu.Unlock()
	tel.RunBytesRead = w.cRunR.Value()
	tel.RunBytesWritten = w.cRunW.Value()
	tel.RPCBytesIn = w.cIn.Value()
	tel.RPCBytesOut = w.cOut.Value()
	tel.EventsDropped = w.relay.Dropped()
	tel.HeapBytes = ms.HeapAlloc
	tel.Goroutines = runtime.NumGoroutine()
	return tel
}

// beat sends one heartbeat carrying the telemetry snapshot and the
// relay lines buffered since the last one.
func (w *Worker) beat() error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	args := &HeartbeatArgs{WorkerID: w.id, Telemetry: w.telemetry(), Events: w.drainEvents()}
	return w.call("Heartbeat", args, &HeartbeatReply{})
}

func (w *Worker) heartbeat() {
	t := time.NewTicker(w.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-w.relay.FlushC():
			// The relay buffer passed half capacity — flush early rather
			// than risk drops before the next scheduled beat.
		}
		if w.isClosed() {
			return
		}
		if err := w.beat(); err != nil {
			return
		}
	}
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// pump pulls leases and executes them until shutdown. Errors on the
// RPC stream (master gone, connection cut) end the pump quietly — the
// driver's blocking WaitJob call surfaces the failure.
func (w *Worker) pump() {
	for {
		waitStart := time.Now()
		var rep LeaseReply
	poll:
		for {
			// Reset before every call: gob leaves fields that are
			// absent from the wire untouched, and a LeaseTask grant
			// encodes Kind as absent (it is the zero value) — reusing
			// the reply after a LeaseWait would misread the grant as
			// another wait and silently orphan the lease.
			rep = LeaseReply{}
			if err := w.call("Lease", &LeaseArgs{WorkerID: w.id}, &rep); err != nil {
				return
			}
			switch rep.Kind {
			case LeaseWait:
				continue
			case LeaseShutdown:
				return
			case LeaseTask:
				break poll
			}
		}
		waitMs := time.Since(waitStart).Milliseconds()
		w.hWait.Observe(float64(waitMs))
		w.tmu.Lock()
		w.waits++
		w.waitMs += waitMs
		w.idleMs += waitMs
		w.tmu.Unlock()
		lease := rep.Lease
		if w.onLease != nil {
			w.onLease(int(w.leaseCount.Add(1)))
		}
		runner := w.runnerFor(lease.JobSeq)
		if runner == nil {
			return // closed before the driver reached this job
		}
		busyStart := time.Now()
		res, err := runner.RunTask(lease.RemoteTask)
		w.tmu.Lock()
		w.busyMs += time.Since(busyStart).Milliseconds()
		if err == nil && res != nil {
			switch lease.Phase {
			case live.PhaseMap:
				w.mapDone++
			case live.PhaseReduce:
				w.redDone++
			}
			w.busyCost += float64(res.Cost)
		}
		w.tmu.Unlock()
		args := &CompleteArgs{WorkerID: w.id, LeaseID: lease.LeaseID, Result: res}
		if err != nil {
			args.Result, args.Err = nil, err.Error()
		}
		if err := w.call("Complete", args, &CompleteReply{}); err != nil {
			return
		}
	}
}

// runnerFor blocks until the local driver has begun the leased job
// (the master's driver is typically a step ahead of the fleet's).
func (w *Worker) runnerFor(seq int) *mapreduce.RemoteRunner {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.runners[seq] == nil && !w.closed {
		w.cond.Wait()
	}
	return w.runners[seq]
}

// TransportName implements mapreduce.TaskTransport.
func (w *Worker) TransportName() string { return "worker" }

// BeginJob implements mapreduce.TaskTransport: bind the runner of the
// next job in the chain to the shared data dir and expose it to the
// lease pumps.
func (w *Worker) BeginJob(runner *mapreduce.RemoteRunner) (mapreduce.RemoteJob, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextSeq++
	runner.Configure(w.dataDir, w.nextSeq, w.id)
	w.runners[w.nextSeq] = runner
	w.cond.Broadcast()
	return workerJob{w: w, seq: w.nextSeq}, nil
}

type workerJob struct {
	w   *Worker
	seq int
}

func (j workerJob) Master() bool { return false }

func (j workerJob) RunTask(mapreduce.RemoteTask) (*mapreduce.TaskResult, error) {
	return nil, errors.New("dist: workers do not dispatch tasks")
}

func (j workerJob) Finish(*mapreduce.RemoteJobResults, error) error { return nil }

// Wait blocks until the master broadcasts the job's committed results
// (or its terminal error).
func (j workerJob) Wait() (*mapreduce.RemoteJobResults, error) {
	var rep WaitJobReply
	if err := j.w.call("WaitJob", &WaitJobArgs{Seq: j.seq}, &rep); err != nil {
		return nil, fmt.Errorf("dist: job %d wait: %w", j.seq, err)
	}
	if rep.Err != "" {
		return nil, fmt.Errorf("dist: job %d failed on master: %s", j.seq, rep.Err)
	}
	res := rep.Results
	return &res, nil
}

// Close announces an orderly departure to the master (so its shutdown
// drain stops counting this worker) and disconnects; pumps and
// heartbeats wind down on their next RPC. The goodbye carries the
// final telemetry snapshot and the last relay event lines — an
// orderly departure leaves a complete fleet row behind.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	// Best effort: a master already gone cannot be said goodbye to.
	// sendMu is held across the call so a racing heartbeat cannot ship
	// newer relay lines ahead of the goodbye's batch.
	w.sendMu.Lock()
	args := &GoodbyeArgs{WorkerID: w.id, Telemetry: w.telemetry(), Events: w.drainEvents()}
	w.call("Goodbye", args, &GoodbyeReply{})
	w.sendMu.Unlock()
	return w.client.Close()
}

// Kill cuts the raw connection without any goodbye — the harness's
// stand-in for a worker process dying abruptly. The master notices
// through heartbeat loss and expires the worker's leases.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.conn.Close()
}
