package mapreduce

import "errors"

// ErrTaskLost marks a dispatched task execution whose lease was lost —
// the worker holding it stopped heartbeating (or died) before
// completing. It is a host-level failure: the task body itself never
// misbehaved, some machine did. Remote transports surface it from
// RemoteJob.RunTask; the engine's dispatch layer re-leases the task up
// to lostLeaseRetries times.
var ErrTaskLost = errors.New("mapreduce: task lease lost")

// lostLeaseRetries is how many times a lost lease is re-dispatched
// before the job fails.
const lostLeaseRetries = 3

// retryLost re-executes a dispatch while it keeps failing with
// ErrTaskLost, up to lostLeaseRetries re-dispatches; any other error
// returns at once. Re-executing the deterministic task body yields the
// exact output the first lease would have produced, and a lost lease
// leaves no trace in the simulated timeline, so Result, trace and
// quality bytes stay identical to a loss-free run.
func retryLost(exec func() (*TaskResult, error)) (*TaskResult, error) {
	for attempt := 0; ; attempt++ {
		out, err := exec()
		if err == nil || !errors.Is(err, ErrTaskLost) || attempt >= lostLeaseRetries {
			return out, err
		}
	}
}
