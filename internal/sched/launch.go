package sched

// LaunchReason names why a batch was launched. The scheduler has one
// launch rule, the paper's (Figure 3): a trapped worker that finds the
// batch flag clear claims it at once, so every launch is
// LaunchImmediate. The other names survive only so that the benchmark's
// sched.launch_share.* rows keep their shape; they stay until a
// benchmark change retires those always-zero rows.
type LaunchReason uint8

const (
	// LaunchHold is the zero value; no launch carries it.
	LaunchHold LaunchReason = iota
	// LaunchImmediate is the paper's rule: the first idle-flag check
	// launches (and, under a serving pump, the batch is topped up to P
	// from the ingress queue).
	LaunchImmediate
	// LaunchNoBacklog, LaunchBudget, LaunchFull, LaunchSizeCap and
	// LaunchDeadline are never counted (see the type comment).
	LaunchNoBacklog
	LaunchBudget
	LaunchFull
	LaunchSizeCap
	LaunchDeadline

	// NumLaunchReasons sizes per-reason counter arrays.
	NumLaunchReasons = int(LaunchDeadline) + 1
)

// LaunchReasonNames maps LaunchReason values to stable metric label
// names.
var LaunchReasonNames = [NumLaunchReasons]string{
	LaunchHold:      "hold",
	LaunchImmediate: "immediate",
	LaunchNoBacklog: "no-backlog",
	LaunchBudget:    "budget-exhausted",
	LaunchFull:      "batch-full",
	LaunchSizeCap:   "size-cap",
	LaunchDeadline:  "deadline",
}

// String returns the reason's stable name.
func (r LaunchReason) String() string {
	if int(r) < len(LaunchReasonNames) {
		return LaunchReasonNames[r]
	}
	return "invalid"
}

// LaunchReasons returns the number of batches launched for each reason
// over the runtime's lifetime: every successful batch-flag claim counts
// as LaunchImmediate (a claim that found its record already consumed
// still counts). Call only while no Run is in progress.
func (rt *Runtime) LaunchReasons() (counts [NumLaunchReasons]int64) {
	m := rt.Metrics()
	counts[LaunchImmediate] = m.BatchesLaunched
	return counts
}
