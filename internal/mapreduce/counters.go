package mapreduce

// Engine counter keys. The engine maintains these itself for every
// job (bulk-incremented per task, so they cost nothing on per-record
// hot paths); user map/reduce functions add their own keys via
// TaskContext.Inc. Keys are exported constants rather than inline
// string literals so call sites cannot silently typo a name — the
// telemetry-key lint in scripts/check.sh rejects literal keys outside
// tests.
const (
	// CounterMapInRecords counts records read by map tasks.
	CounterMapInRecords = "mr.map.in_records"
	// CounterMapOutRecords counts records emitted by map functions.
	CounterMapOutRecords = "mr.map.out_records"
	// CounterReduceInRecords and CounterReduceInGroups count reduce-task
	// input records and distinct key groups.
	CounterReduceInRecords = "mr.reduce.in_records"
	CounterReduceInGroups  = "mr.reduce.in_groups"
	// CounterReduceOutRecords counts records emitted by reduce functions.
	CounterReduceOutRecords = "mr.reduce.out_records"
	// Budget-forced spill activity during this job: how often the
	// process-wide memory budget (Config.MemBudget) squeezed buffered
	// runs to disk and how many tracked bytes moved, read off the
	// manager's Snapshot. Memory pressure is a host condition, so these
	// report only through Config.Metrics, never Result.Counters.
	CounterBudgetForcedSpills = "mr.membudget.forced_spills"
	CounterBudgetSpilledBytes = "mr.membudget.spilled_bytes"
	// GaugeMemBudgetPeakBytes and GaugeMemBudgetChargedBytes report the
	// budget manager's high-water mark of tracked bytes and the
	// cumulative bytes charged across the run so far (the raw shuffle
	// volume), set by every job from the manager's Snapshot. Registry
	// only, like the forced-spill counters.
	GaugeMemBudgetPeakBytes    = "pipeline.membudget_peak_bytes"
	GaugeMemBudgetChargedBytes = "pipeline.membudget_charged_bytes"
	// Distributed-runtime counters, maintained by the master's lease
	// ledger: worker processes registered, task leases granted, leases
	// expired after heartbeat loss, and raw RPC bytes moved over the
	// wire in each direction. The transport is a host knob, so these
	// report only through Config.Metrics (on the process hosting the
	// master), never Result.Counters.
	CounterDistWorkersRegistered = "mr.dist.workers_registered"
	CounterDistLeasesGranted     = "mr.dist.leases_granted"
	CounterDistLeasesExpired     = "mr.dist.leases_expired"
	CounterDistRPCBytesIn        = "mr.dist.rpc_bytes_in"
	CounterDistRPCBytesOut       = "mr.dist.rpc_bytes_out"
	// CounterDistRPCCalls counts RPC round-trips (client side: calls
	// issued; server side: calls served). CounterDistRunBytesRead and
	// CounterDistRunBytesWritten count shared-directory run-file bytes a
	// worker process streamed while executing leases. Registry-only like
	// every mr.dist.* key.
	CounterDistRPCCalls        = "mr.dist.rpc.calls"
	CounterDistRunBytesRead    = "mr.dist.runfile_bytes_read"
	CounterDistRunBytesWritten = "mr.dist.runfile_bytes_written"

	// HistTaskCostUnits is the registry histogram of per-task simulated
	// costs (map and reduce), fed by the engine at the end of each job.
	HistTaskCostUnits = "mr_task_cost_units"
	// RPC latency histograms: client-observed round-trip time (worker
	// side, includes long-poll waits only on Lease calls) and
	// server-observed handler time (master side). HistDistLeaseWaitMillis
	// is the worker-observed wall time from first lease poll to grant —
	// the fleet's idle-tail signal. All wall-clock, registry-only.
	HistDistRPCClientMillis = "mr_dist_rpc_client_ms"
	HistDistRPCServerMillis = "mr_dist_rpc_server_ms"
	HistDistLeaseWaitMillis = "mr_dist_lease_wait_ms"
)
