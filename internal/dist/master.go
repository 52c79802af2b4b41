package dist

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"strings"
	"sync"
	"time"

	"proger/internal/mapreduce"
	"proger/internal/obs"
	"proger/internal/obs/live"
)

// DefaultLeaseTTL is how long a worker may go silent before it is
// declared dead and its leases expire. Heartbeats arrive every TTL/3,
// so one lost beat is tolerated, repeated loss is not.
const DefaultLeaseTTL = 10 * time.Second

// MasterOptions configures a Master.
type MasterOptions struct {
	// Listen is the RPC endpoint: a TCP host:port, or "unix:" followed
	// by a socket path. Use port 0 (or a fresh socket path) and read
	// Addr() for tests and forked single-machine fleets.
	Listen string
	// DataDir is the run-file directory shared with every worker. Empty
	// means the master creates (and on Close removes) a temp dir —
	// suitable only for single-machine fleets.
	DataDir string
	// LeaseTTL overrides DefaultLeaseTTL; tests shrink it to exercise
	// expiry without wall-clock-scale sleeps.
	LeaseTTL time.Duration
	// Metrics receives the mr.dist.* counters, when non-nil.
	Metrics *obs.Registry
	// Log receives worker.register / lease / lease.expire events, when
	// non-nil.
	Log *live.EventLog
	// Run describes the run every process's driver resolves. It is
	// handed unread to each worker at registration (Worker.Run); an
	// in-process fleet whose drivers share their options leaves it
	// empty.
	Run []byte
}

// Master is the lease-granting side of the distributed transport. It
// implements mapreduce.TaskTransport: the process that owns it runs
// the deterministic driver as usual, and every task execution its
// job's phases request is leased out to a registered worker process.
type Master struct {
	ln      net.Listener
	dataDir string
	ownData bool
	ttl     time.Duration
	log     *live.EventLog
	run     []byte

	cWorkers, cLeases, cExpired, cIn, cOut, cRPC *obs.Counter
	hRPC                                         *obs.Histogram

	tasks     chan *pendingTask
	closed    chan struct{}
	closeOnce sync.Once

	mu         sync.Mutex
	cond       *sync.Cond
	workers    map[int]*workerState
	leases     map[uint64]*leaseEntry
	done       map[int]*WaitJobReply // each finished job's broadcast, by seq
	conns      map[net.Conn]struct{}
	nextWorker int
	nextLease  uint64
	nextSeq    int
	waiters    int
	closing    bool
}

// workerState is one worker's row in the fleet ledger. The lease
// fields (granted/expired, per-phase completions, busyCost) are
// attributed by the master itself — authoritative even after the
// worker dies — while tel is whatever the worker last self-reported.
// Workers are never deleted from the map: a dead worker's row, last
// snapshot included, is the post-mortem /fleet exists to serve.
type workerState struct {
	lastBeat   time.Time
	dead       bool
	statusAddr string
	pid        int
	granted    int64
	expired    int64
	mapDone    int64
	redDone    int64
	busyCost   float64
	tel        live.WorkerTelemetry
	telAt      time.Time
	hasTel     bool
}

type leaseEntry struct {
	task   *pendingTask
	worker int
}

// pendingTask is one requested task execution making its way through
// the lease queue. ch (capacity 1) receives exactly one outcome:
// the first completion, or lease expiry as mapreduce.ErrTaskLost.
type pendingTask struct {
	seq int
	mapreduce.RemoteTask
	ch chan taskOutcome
}

type taskOutcome struct {
	res *mapreduce.TaskResult
	err error
}

// rpcMillisBuckets bound the RPC latency histograms. Leases long-poll
// for 250ms, so the tail buckets catch waits, not slow handlers.
var rpcMillisBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// listen resolves the Listen notation shared by master and worker:
// "unix:<path>" or a TCP host:port.
func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

func dial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", addr)
}

// NewMaster starts listening and serving the lease protocol. The
// returned Master is ready to be set as a Config/Options Transport.
func NewMaster(opts MasterOptions) (*Master, error) {
	ln, err := listen(opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	dataDir, ownData := opts.DataDir, false
	if dataDir == "" {
		dataDir, err = os.MkdirTemp("", "proger-dist-")
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("dist: data dir: %w", err)
		}
		ownData = true
	}
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	m := &Master{
		ln:       ln,
		dataDir:  dataDir,
		ownData:  ownData,
		ttl:      ttl,
		log:      opts.Log,
		run:      opts.Run,
		cWorkers: opts.Metrics.Counter(mapreduce.CounterDistWorkersRegistered),
		cLeases:  opts.Metrics.Counter(mapreduce.CounterDistLeasesGranted),
		cExpired: opts.Metrics.Counter(mapreduce.CounterDistLeasesExpired),
		cIn:      opts.Metrics.Counter(mapreduce.CounterDistRPCBytesIn),
		cOut:     opts.Metrics.Counter(mapreduce.CounterDistRPCBytesOut),
		cRPC:     opts.Metrics.Counter(mapreduce.CounterDistRPCCalls),
		hRPC:     opts.Metrics.Histogram(mapreduce.HistDistRPCServerMillis, rpcMillisBuckets...),
		tasks:    make(chan *pendingTask, 4096),
		closed:   make(chan struct{}),
		workers:  map[int]*workerState{},
		leases:   map[uint64]*leaseEntry{},
		done:     map[int]*WaitJobReply{},
		conns:    map[net.Conn]struct{}{},
	}
	m.cond = sync.NewCond(&m.mu)
	srv := rpc.NewServer()
	if err := srv.RegisterName(rpcService, &masterRPC{m}); err != nil {
		ln.Close()
		return nil, fmt.Errorf("dist: register service: %w", err)
	}
	go m.accept(srv)
	go m.expiryScan()
	return m, nil
}

// Addr returns the endpoint workers should connect to, in the same
// notation Listen accepts.
func (m *Master) Addr() string {
	if m.ln.Addr().Network() == "unix" {
		return "unix:" + m.ln.Addr().String()
	}
	return m.ln.Addr().String()
}

func (m *Master) accept(srv *rpc.Server) {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		cc := &countingConn{Conn: conn, in: m.cIn, out: m.cOut}
		m.mu.Lock()
		if m.closing {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		go func() {
			srv.ServeConn(cc)
			m.mu.Lock()
			delete(m.conns, conn)
			m.mu.Unlock()
			conn.Close()
		}()
	}
}

// expiryScan is the lease reaper: workers silent past the TTL are
// declared dead and their outstanding leases expire, delivering
// ErrTaskLost to the blocked dispatch so the task re-enqueues.
func (m *Master) expiryScan() {
	t := time.NewTicker(m.ttl / 4)
	defer t.Stop()
	for {
		select {
		case <-m.closed:
			return
		case <-t.C:
		}
		now := time.Now()
		var expired []*leaseEntry
		var ids []uint64
		m.mu.Lock()
		for id, ws := range m.workers {
			if ws.dead || now.Sub(ws.lastBeat) <= m.ttl {
				continue
			}
			ws.dead = true
			e, i := m.takeLeasesLocked(id)
			expired = append(expired, e...)
			ids = append(ids, i...)
		}
		m.mu.Unlock()
		m.deliverExpired(expired, ids)
	}
}

// takeLeasesLocked removes every lease held by the given worker and
// returns the entries for delivery, charging the worker's expiry
// tally. Caller holds m.mu.
func (m *Master) takeLeasesLocked(worker int) ([]*leaseEntry, []uint64) {
	var expired []*leaseEntry
	var ids []uint64
	for lid, le := range m.leases {
		if le.worker == worker {
			delete(m.leases, lid)
			expired = append(expired, le)
			ids = append(ids, lid)
		}
	}
	if ws := m.workers[worker]; ws != nil {
		ws.expired += int64(len(expired))
	}
	return expired, ids
}

// deliverExpired surfaces expired leases to their blocked dispatches
// as ErrTaskLost, emitting telemetry per lease.
func (m *Master) deliverExpired(expired []*leaseEntry, ids []uint64) {
	for i, le := range expired {
		m.cExpired.Inc()
		m.log.Emit(live.EventLeaseExpire,
			live.KV("lease", int64(ids[i])), live.KV("worker", le.worker),
			live.KV("job", le.task.seq), live.KV("phase", string(le.task.Phase)),
			live.KV("task", le.task.Task))
		le.task.ch <- taskOutcome{err: fmt.Errorf("%w: worker %d (lease %d)",
			mapreduce.ErrTaskLost, le.worker, ids[i])}
	}
}

// TransportName implements mapreduce.TaskTransport.
func (m *Master) TransportName() string { return "master" }

// BeginJob implements mapreduce.TaskTransport: make the job's shared
// directory and hand back the dispatch handle the driver leases tasks
// through. The runner is unused on the master — this process executes
// nothing locally.
func (m *Master) BeginJob(*mapreduce.RemoteRunner) (mapreduce.RemoteJob, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return nil, errors.New("dist: master closed")
	}
	if err := os.MkdirAll(mapreduce.RemoteJobDir(m.dataDir, m.nextSeq+1), 0o777); err != nil {
		return nil, fmt.Errorf("dist: job dir: %w", err)
	}
	m.nextSeq++
	return masterJob{m: m, seq: m.nextSeq}, nil
}

type masterJob struct {
	m   *Master
	seq int
}

func (j masterJob) Master() bool { return true }

// RunTask enqueues one task execution and blocks until a worker's
// first completion — or lease expiry, which the mapreduce dispatch
// layer retries by calling RunTask again.
func (j masterJob) RunTask(rt mapreduce.RemoteTask) (*mapreduce.TaskResult, error) {
	t := &pendingTask{seq: j.seq, RemoteTask: rt, ch: make(chan taskOutcome, 1)}
	select {
	case j.m.tasks <- t:
	case <-j.m.closed:
		return nil, errors.New("dist: master closed")
	}
	out := <-t.ch
	return out.res, out.err
}

// Finish records the job's broadcast (or terminal error), waking
// worker WaitJob polls, then retires the job's map files.
func (j masterJob) Finish(results *mapreduce.RemoteJobResults, runErr error) error {
	done := &WaitJobReply{}
	if runErr != nil {
		done.Err = runErr.Error()
	} else {
		done.Results = *results
	}
	j.m.mu.Lock()
	j.m.done[j.seq] = done
	j.m.cond.Broadcast()
	j.m.mu.Unlock()
	return os.RemoveAll(mapreduce.RemoteJobDir(j.m.dataDir, j.seq))
}

func (j masterJob) Wait() (*mapreduce.RemoteJobResults, error) {
	return nil, errors.New("dist: master does not wait for its own broadcast")
}

// Close drains the fleet — it waits (bounded) until every registered
// worker has departed via Goodbye or been declared dead, and until
// in-flight WaitJob calls have been answered, so end-of-job
// broadcasts flush to processes still catching up — then shuts the
// lease queue down and releases the endpoint and any owned data dir.
func (m *Master) Close() error {
	m.mu.Lock()
	m.closing = true
	m.cond.Broadcast()
	m.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		alive := 0
		for _, ws := range m.workers {
			if !ws.dead {
				alive++
			}
		}
		n := m.waiters
		m.mu.Unlock()
		if (alive == 0 && n == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.closeOnce.Do(func() { close(m.closed) })
	// Give in-flight shutdown replies a beat to flush before cutting
	// connections.
	time.Sleep(50 * time.Millisecond)
	err := m.ln.Close()
	m.mu.Lock()
	for c := range m.conns {
		c.Close()
	}
	m.mu.Unlock()
	if m.ownData {
		os.RemoveAll(m.dataDir)
	}
	return err
}

// masterRPC is the net/rpc-exported method set.
type masterRPC struct {
	m *Master
}

// timed feeds the server-side RPC instruments; every handler defers
// it with its entry time.
func (r *masterRPC) timed(t0 time.Time) {
	r.m.cRPC.Inc()
	r.m.hRPC.Observe(float64(time.Since(t0).Milliseconds()))
}

// recordTelemetryLocked stores a worker's self-reported snapshot.
// Caller holds m.mu. Dead workers' snapshots are recorded too — a
// straggling beat from an expired worker still improves its
// post-mortem row.
func (m *Master) recordTelemetryLocked(ws *workerState, tel live.WorkerTelemetry) {
	ws.tel = tel
	ws.telAt = time.Now()
	ws.hasTel = true
}

// forward merges a worker's relayed event lines into the master's
// log under its process identity.
func (m *Master) forward(worker int, events []string) {
	if len(events) == 0 {
		return
	}
	m.log.EmitForwarded(fmt.Sprintf("w%d", worker), events)
}

// Register adds a worker process to the fleet.
func (r *masterRPC) Register(args *RegisterArgs, reply *RegisterReply) error {
	defer r.timed(time.Now())
	m := r.m
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return errors.New("dist: master closed")
	}
	m.nextWorker++
	id := m.nextWorker
	m.workers[id] = &workerState{lastBeat: time.Now(),
		statusAddr: args.StatusAddr, pid: args.Pid}
	m.mu.Unlock()
	m.cWorkers.Inc()
	m.log.Emit(live.EventWorkerRegister, live.KV("worker", id))
	reply.WorkerID = id
	reply.TTLMillis = m.ttl.Milliseconds()
	reply.DataDir = m.dataDir
	reply.Run = m.run
	reply.WantEvents = m.log != nil
	return nil
}

// Heartbeat refreshes a worker's liveness and records the telemetry
// snapshot and relayed events it carries. A worker already declared
// dead still gets its observability payload recorded — the error just
// tells it to stop working.
func (r *masterRPC) Heartbeat(args *HeartbeatArgs, _ *HeartbeatReply) error {
	defer r.timed(time.Now())
	m := r.m
	m.mu.Lock()
	ws := m.workers[args.WorkerID]
	if ws == nil {
		m.mu.Unlock()
		return fmt.Errorf("dist: unknown worker %d", args.WorkerID)
	}
	m.recordTelemetryLocked(ws, args.Telemetry)
	dead := ws.dead
	if !dead {
		ws.lastBeat = time.Now()
	}
	m.mu.Unlock()
	m.forward(args.WorkerID, args.Events)
	if dead {
		return fmt.Errorf("dist: unknown or expired worker %d", args.WorkerID)
	}
	return nil
}

// Goodbye marks an orderly departure: the worker no longer counts
// toward the shutdown drain, and any leases it somehow still holds
// expire immediately rather than waiting out the TTL. The final
// telemetry snapshot and event batch it carries complete the
// worker's fleet row.
func (r *masterRPC) Goodbye(args *GoodbyeArgs, _ *GoodbyeReply) error {
	defer r.timed(time.Now())
	m := r.m
	m.mu.Lock()
	var expired []*leaseEntry
	var ids []uint64
	if ws := m.workers[args.WorkerID]; ws != nil {
		m.recordTelemetryLocked(ws, args.Telemetry)
		if !ws.dead {
			ws.dead = true
			expired, ids = m.takeLeasesLocked(args.WorkerID)
		}
	}
	m.mu.Unlock()
	m.forward(args.WorkerID, args.Events)
	m.deliverExpired(expired, ids)
	return nil
}

// Lease long-polls for the next task. A worker declared dead gets an
// error and must stop (its completions would be discarded anyway).
func (r *masterRPC) Lease(args *LeaseArgs, reply *LeaseReply) error {
	defer r.timed(time.Now())
	m := r.m
	poll := time.NewTimer(250 * time.Millisecond)
	defer poll.Stop()
	select {
	case t := <-m.tasks:
		m.mu.Lock()
		ws := m.workers[args.WorkerID]
		if ws == nil || ws.dead {
			m.mu.Unlock()
			m.requeue(t)
			return fmt.Errorf("dist: unknown or expired worker %d", args.WorkerID)
		}
		ws.lastBeat = time.Now()
		ws.granted++
		m.nextLease++
		id := m.nextLease
		m.leases[id] = &leaseEntry{task: t, worker: args.WorkerID}
		m.mu.Unlock()
		m.cLeases.Inc()
		m.log.Emit(live.EventLease,
			live.KV("lease", int64(id)), live.KV("worker", args.WorkerID),
			live.KV("job", t.seq), live.KV("phase", string(t.Phase)), live.KV("task", t.Task))
		reply.Kind = LeaseTask
		reply.Lease = TaskLease{LeaseID: id, JobSeq: t.seq, RemoteTask: t.RemoteTask}
		return nil
	case <-poll.C:
		reply.Kind = LeaseWait
		return nil
	case <-m.closed:
		reply.Kind = LeaseShutdown
		return nil
	}
}

func (m *Master) requeue(t *pendingTask) {
	select {
	case m.tasks <- t:
	default:
		// Queue full (cannot happen in practice: capacity exceeds any
		// job's task count) — fail the dispatch rather than deadlock.
		t.ch <- taskOutcome{err: errors.New("dist: lease queue overflow")}
	}
}

// Complete reports a leased execution's outcome. First completion
// wins: an expired (re-leased) lease's late completion is discarded.
// An accepted completion is attributed to the lease's worker — in the
// fleet ledger, and on the result itself (Result.Worker), so every
// process's live task table can show who ran what.
func (r *masterRPC) Complete(args *CompleteArgs, _ *CompleteReply) error {
	defer r.timed(time.Now())
	m := r.m
	m.mu.Lock()
	le, ok := m.leases[args.LeaseID]
	if ok {
		delete(m.leases, args.LeaseID)
	}
	if ws := m.workers[args.WorkerID]; ws != nil && !ws.dead {
		ws.lastBeat = time.Now()
	}
	if ok && args.Err == "" && args.Result != nil {
		args.Result.Worker = le.worker
		if ws := m.workers[le.worker]; ws != nil {
			switch le.task.Phase {
			case live.PhaseMap:
				ws.mapDone++
			case live.PhaseReduce:
				ws.redDone++
			}
			ws.busyCost += float64(args.Result.Cost)
		}
	}
	m.mu.Unlock()
	if !ok {
		return nil
	}
	switch {
	case args.Err != "":
		le.task.ch <- taskOutcome{err: errors.New(args.Err)}
	case args.Result == nil:
		le.task.ch <- taskOutcome{err: fmt.Errorf("dist: lease %d completed without a result", args.LeaseID)}
	default:
		le.task.ch <- taskOutcome{res: args.Result}
	}
	return nil
}

// WaitJob blocks until job Seq finishes, then returns the master's
// end-of-job broadcast (or the job's terminal error).
func (r *masterRPC) WaitJob(args *WaitJobArgs, reply *WaitJobReply) error {
	defer r.timed(time.Now())
	m := r.m
	m.mu.Lock()
	m.waiters++
	for m.done[args.Seq] == nil && !m.closing {
		m.cond.Wait()
	}
	done := m.done[args.Seq]
	m.waiters--
	m.mu.Unlock()
	if done == nil {
		return fmt.Errorf("dist: master closed before job %d finished", args.Seq)
	}
	*reply = *done
	return nil
}

// FleetSnapshot assembles the master's fleet table: every worker
// ever registered (dead ones included, with their last telemetry),
// the master's own lease attribution, and a skew-vs-mean signal over
// busy cost. Implements live.FleetProvider for the /fleet endpoint
// and the run-summary fleet section.
func (m *Master) FleetSnapshot() live.FleetSnapshot {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()

	held := map[int]int{}
	for _, le := range m.leases {
		held[le.worker]++
	}
	var costSum float64
	var costN int
	for _, ws := range m.workers {
		if ws.granted > 0 {
			costSum += ws.busyCost
			costN++
		}
	}
	mean := 0.0
	if costN > 0 {
		mean = costSum / float64(costN)
	}

	var fs live.FleetSnapshot
	for id := 1; id <= m.nextWorker; id++ {
		ws := m.workers[id]
		if ws == nil {
			continue
		}
		fw := live.FleetWorker{
			ID:                 id,
			Pid:                ws.pid,
			StatusAddr:         ws.statusAddr,
			Alive:              !ws.dead,
			HeartbeatAgeMillis: now.Sub(ws.lastBeat).Milliseconds(),
			LeasesHeld:         held[id],
			LeasesGranted:      ws.granted,
			LeasesExpired:      ws.expired,
			MapDone:            ws.mapDone,
			ReduceDone:         ws.redDone,
			BusyCostUnits:      ws.busyCost,
		}
		if mean > 0 {
			fw.SkewVsMean = ws.busyCost / mean
		}
		if ws.hasTel {
			tel := ws.tel
			fw.Telemetry = &tel
			fw.TelemetryAgeMillis = now.Sub(ws.telAt).Milliseconds()
		}
		if fw.Alive {
			fs.Alive++
		} else {
			fs.Dead++
		}
		fs.Workers = append(fs.Workers, fw)
	}
	return fs
}

// countingConn feeds the RPC byte counters from the raw stream.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
