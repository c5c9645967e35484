package sim

// Process exit codes shared by the CLIs (simctl run/spf/campaign, simd).
// Distinct codes let scripts and CI tell resource exhaustion from
// wall-clock overrun from an internal panic without parsing stderr; simd
// reuses the same table for job status codes so a job's disposition reads
// identically over HTTP and on a shell.
const (
	// ExitOK: the run completed.
	ExitOK = 0
	// ExitUsage: usage or I/O errors before or after the run.
	ExitUsage = 1
	// ExitAbort: event budget exhausted, and every other mid-run abort
	// without a dedicated code (failed watches, oscillation, bad event
	// times, unclassified aborts).
	ExitAbort = 2
	// ExitDeadline: wall-clock deadline exceeded.
	ExitDeadline = 3
	// ExitPanic: a panic was recovered inside the run.
	ExitPanic = 4
	// ExitCanceled: the run was canceled (SIGINT/SIGTERM, or a client
	// abandoning a streamed job).
	ExitCanceled = 5
)

// ExitCode maps an abort class to its process exit code — the one table
// behind every CLI's cause-specific exit status.
func ExitCode(class Class) int {
	switch class {
	case ClassDeadline:
		return ExitDeadline
	case ClassPanic:
		return ExitPanic
	case ClassCanceled:
		return ExitCanceled
	default:
		// Budget, watch, oscillation, bad event times and unclassified
		// aborts share the generic mid-run abort code.
		return ExitAbort
	}
}
