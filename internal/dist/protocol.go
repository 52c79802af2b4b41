// Package dist is the multi-process execution transport: a master
// process drives each job's map and reduce phases and leases task
// executions to worker processes over net/rpc (stdlib, gob encoding,
// TCP or unix sockets). Every process runs the same driver on the same
// run — the lockstep-replay contract of mapreduce.TaskTransport. The
// master's MasterOptions.Run is that run's description, opaque to this
// package: each worker receives it at registration (Worker.Run) and
// derives its jobs from it, never from settings of its own. So the
// wire carries only the run, task identity, result metadata, and the
// master's end-of-job broadcast; bulk intermediate data moves through
// run files on a shared directory.
//
// Fault model: workers heartbeat; a worker silent for a full lease
// TTL is declared dead and its outstanding leases expire. Expiry
// surfaces to the master's dispatch loop as mapreduce.ErrTaskLost,
// which re-enqueues the task (mapreduce's retryLost) — a lost lease
// never touches the simulated timeline, so Result, trace,
// and quality bytes stay identical to a single-process run even when
// workers die mid-run.
package dist

import (
	"encoding/gob"

	"proger/internal/mapreduce"
	"proger/internal/obs/live"
)

// rpcService is the name the master's method set registers under.
const rpcService = "Dist"

// Lease reply kinds.
const (
	// LeaseTask grants the lease in LeaseReply.Lease.
	LeaseTask = iota
	// LeaseWait means no task was available within the long-poll
	// window; the worker should ask again.
	LeaseWait
	// LeaseShutdown means the master is done; the worker should stop
	// pulling work.
	LeaseShutdown
)

// TaskLease is one granted task execution: which task of which job,
// under which lease identity.
type TaskLease struct {
	LeaseID uint64
	JobSeq  int
	mapreduce.RemoteTask
}

// RegisterArgs/RegisterReply: a worker process joins the fleet. The
// worker self-describes for the fleet table: its OS pid and, when it
// runs its own status server, that server's listen address (both
// observability-only — the master never dials StatusAddr itself, it
// just republishes it on /fleet).
type RegisterArgs struct {
	StatusAddr string
	Pid        int
}

// RegisterReply is Register's response: the worker's assigned
// identity, the heartbeat/lease TTL in milliseconds, the shared data
// directory, and the master's run (MasterOptions.Run). WantEvents tells
// the worker whether the master keeps an event log — when false the
// worker discards its relay buffer locally instead of shipping lines
// nobody will write.
type RegisterReply struct {
	WorkerID   int
	TTLMillis  int64
	DataDir    string
	Run        []byte
	WantEvents bool
}

// HeartbeatArgs keeps a worker's lease alive. Each beat piggybacks
// the worker's current telemetry snapshot and, when the master wants
// them, the relay event lines buffered since the last beat. Both are
// observability payloads: the lease ledger ignores them entirely.
type HeartbeatArgs struct {
	WorkerID  int
	Telemetry live.WorkerTelemetry
	Events    []string
}

// HeartbeatReply is empty.
type HeartbeatReply struct{}

// LeaseArgs asks for the next task (long-poll).
type LeaseArgs struct {
	WorkerID int
}

// LeaseReply carries the poll outcome.
type LeaseReply struct {
	Kind  int
	Lease TaskLease
}

// CompleteArgs reports a leased task's outcome: the wire-form result,
// or the task body's error string. A completion whose lease has
// already expired is discarded by the master — first completion wins.
type CompleteArgs struct {
	WorkerID int
	LeaseID  uint64
	Result   *mapreduce.TaskResult
	Err      string
}

// CompleteReply is empty.
type CompleteReply struct{}

// GoodbyeArgs announces an orderly departure: the worker's driver has
// finished and no further leases or waits will come from it. The
// master stops counting the worker toward its shutdown drain. Leases
// the worker still holds (there should be none) expire immediately.
// The goodbye carries the worker's final telemetry snapshot and the
// last relay event lines, so an orderly shutdown loses nothing.
type GoodbyeArgs struct {
	WorkerID  int
	Telemetry live.WorkerTelemetry
	Events    []string
}

// GoodbyeReply is empty.
type GoodbyeReply struct{}

// WaitJobArgs asks (blocking) for job Seq's end-of-job broadcast.
type WaitJobArgs struct {
	Seq int
}

// WaitJobReply carries every committed task result — or the job's
// terminal error — so the worker's lockstep driver can proceed.
type WaitJobReply struct {
	Results mapreduce.RemoteJobResults
	Err     string
}

func init() {
	// obs.Span arguments are typed `any`; gob needs the concrete types
	// that actually flow through span args registered up front.
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}
