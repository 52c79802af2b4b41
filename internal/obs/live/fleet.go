package live

// WorkerTelemetry is one worker process's self-reported activity
// snapshot, piggybacked on every heartbeat. Everything in it is
// wall-clock or host-resource territory — per-phase execution counts,
// busy/idle wall time, lease-wait latency, bytes moved — and therefore
// lives strictly on the observability side of the determinism
// contract: the master records it in its fleet table and nothing else
// ever reads it.
type WorkerTelemetry struct {
	// MapTasks/ReduceTasks count lease executions this worker completed
	// successfully, by phase.
	MapTasks    int64 `json:"map_tasks"`
	ReduceTasks int64 `json:"reduce_tasks"`
	// BusyCostUnits sums the simulated cost of completed executions —
	// the worker-local view of realized load, comparable across the
	// fleet because the simulated clock is host-independent.
	BusyCostUnits float64 `json:"busy_cost_units"`
	// BusyMillis/IdleMillis split the pump loops' wall time between
	// executing leases and waiting for grants.
	BusyMillis int64 `json:"busy_ms"`
	IdleMillis int64 `json:"idle_ms"`
	// LeaseWaits counts grants; LeaseWaitMillis sums the wall time from
	// first poll to grant.
	LeaseWaits      int64 `json:"lease_waits"`
	LeaseWaitMillis int64 `json:"lease_wait_ms"`
	// RunBytesRead/RunBytesWritten are shared-directory run-file bytes
	// this process moved (map runs written, reduce inputs merged off the
	// map runs).
	RunBytesRead    int64 `json:"run_bytes_read"`
	RunBytesWritten int64 `json:"run_bytes_written"`
	// RPCBytesIn/RPCBytesOut count raw bytes on this worker's RPC
	// connection to the master.
	RPCBytesIn  int64 `json:"rpc_bytes_in"`
	RPCBytesOut int64 `json:"rpc_bytes_out"`
	// EventsDropped counts relay-log events discarded at buffer
	// capacity (gaps in coverage, never in seq).
	EventsDropped int64 `json:"events_dropped"`
	// HeapBytes and Goroutines are Go runtime vitals at snapshot time.
	HeapBytes  uint64 `json:"heap_bytes"`
	Goroutines int    `json:"goroutines"`
}

// FleetWorker is one worker's row in the master's fleet table: lease
// ledger state the master attributes itself (authoritative even for a
// dead worker) plus the worker's last self-reported telemetry.
type FleetWorker struct {
	ID         int    `json:"id"`
	Pid        int    `json:"pid,omitempty"`
	StatusAddr string `json:"status_addr,omitempty"`
	// Alive is false once the worker said goodbye or went silent past
	// the TTL. Dead workers stay in the table with their last snapshot —
	// that is the post-mortem the fleet view exists for.
	Alive              bool  `json:"alive"`
	HeartbeatAgeMillis int64 `json:"heartbeat_age_ms"`
	// LeasesHeld counts leases currently outstanding on this worker;
	// granted/expired are lifetime totals (expired ≤ granted always).
	LeasesHeld    int   `json:"leases_held"`
	LeasesGranted int64 `json:"leases_granted"`
	LeasesExpired int64 `json:"leases_expired"`
	// MapDone/ReduceDone count completions the master accepted from
	// this worker (first-completion-wins; late duplicates are not
	// counted).
	MapDone    int64 `json:"map_done"`
	ReduceDone int64 `json:"reduce_done"`
	// BusyCostUnits sums accepted completions' simulated cost;
	// SkewVsMean is this worker's share against the mean over workers
	// that received any lease — the fleet-level straggler signal.
	BusyCostUnits float64 `json:"busy_cost_units"`
	SkewVsMean    float64 `json:"skew_vs_mean"`
	// Telemetry is the worker's last heartbeat snapshot (nil before the
	// first beat); TelemetryAgeMillis is how stale it is.
	TelemetryAgeMillis int64            `json:"telemetry_age_ms,omitempty"`
	Telemetry          *WorkerTelemetry `json:"telemetry,omitempty"`
}

// FleetSnapshot is the master's point-in-time fleet table, workers in
// registration order.
type FleetSnapshot struct {
	Workers []FleetWorker `json:"workers"`
	Alive   int           `json:"alive"`
	Dead    int           `json:"dead"`
}

// FleetProvider is anything that can snapshot a fleet table — in
// practice the dist master. The live package defines the interface
// (rather than importing the transport) so the dependency points the
// same way as every other Attach: transports feed observability, never
// the reverse.
type FleetProvider interface {
	FleetSnapshot() FleetSnapshot
}

// AttachFleet connects the distributed master whose fleet table the
// /fleet endpoint and run-summary fleet section report.
func (r *Run) AttachFleet(p FleetProvider) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fleet = p
	r.mu.Unlock()
}

// Fleet returns the attached fleet provider's snapshot (zero when no
// fleet is attached — single-process runs).
func (r *Run) Fleet() FleetSnapshot {
	if r == nil {
		return FleetSnapshot{}
	}
	r.mu.Lock()
	p := r.fleet
	r.mu.Unlock()
	if p == nil {
		return FleetSnapshot{}
	}
	return p.FleetSnapshot()
}
