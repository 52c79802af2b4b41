package mapreduce

// The task transport layer: where one job's task bodies (runJobGraph's
// body policy) execute. With no transport every body runs in-process;
// a TaskTransport (internal/dist) instead leases the deterministic map
// and reduce bodies — identified by (job seq, phase, task index); a
// reduce merges its own input — to worker processes, while the
// two-phase task runner and all observability stay in this package and
// are shared verbatim between the two. That sharing is the determinism
// argument: both placements run the same runner, their bodies return
// the same
// TaskResult and their reduce tasks read the same partitionStore, so
// phaseOutputs — and with it Result, trace, and quality bytes — cannot
// depend on which transport executed the work.

// TaskTransport executes a job's task bodies in other OS processes
// (see internal/dist); the nil value runs every task body in this
// process — the determinism reference every transport is byte-compared
// against. Like Workers, it is purely a host-machine knob: every
// transport produces byte-identical Results, traces, counters, and
// quality exports.
//
// Every process in the fleet — the master and each worker — runs the
// *same* deterministic driver (the full job chain) on the same run (a
// dist.Master hands each worker its run description at registration);
// what crosses the wire is task identity and result metadata, never
// closures or input payloads. The engine calls BeginJob once per job,
// in job-chain order, on every process:
//
//   - on the master, the returned RemoteJob dispatches tasks
//     (RunTask leases them to workers) and Finish broadcasts the
//     aggregated job results;
//   - on a worker, the transport registers the runner to execute
//     incoming leases, and Wait blocks until the master's broadcast,
//     whose results the worker copies into its phaseOutputs unchanged —
//     keeping every process's driver loop (job 2's schedule feeds on
//     job 1's Result) in lockstep.
type TaskTransport interface {
	// TransportName labels the transport in errors and diagnostics.
	TransportName() string
	// BeginJob starts the next job in the chain; runner executes
	// leased task bodies worker-side.
	BeginJob(runner *RemoteRunner) (RemoteJob, error)
}

// RemoteJob is one job's handle on a remote transport.
type RemoteJob interface {
	// Master reports whether this process drives the job (dispatching
	// tasks and broadcasting results) or follows it (executing leases,
	// then waiting for the broadcast).
	Master() bool
	// RunTask executes one task on some worker and blocks until it
	// completes (master only). A lease lost to a dead worker surfaces
	// ErrTaskLost, which the engine re-dispatches (retryLost) without
	// touching the simulated timeline.
	RunTask(t RemoteTask) (*TaskResult, error)
	// Finish ends the job (master only): broadcasts every task's
	// committed result — or the terminal error — to the worker fleet
	// and releases the job's shared map files.
	Finish(results *RemoteJobResults, runErr error) error
	// Wait blocks until the master broadcasts the job's results
	// (worker only).
	Wait() (*RemoteJobResults, error)
}
