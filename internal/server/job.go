package server

import (
	"context"
	"sync"

	"involution/internal/server/api"
)

// Status, Record and ResultPayload are the wire types of the protocol,
// defined in internal/server/api so clients can import them without the
// execution engine.
type (
	// Status is a job's lifecycle state.
	Status = api.Status
	// Record is the externally visible state of one job: what GET
	// /v1/jobs/{id} returns and what WriteJobRecords flushes on drain.
	Record = api.Record
	// ResultPayload is the Record.Result schema.
	ResultPayload = api.ResultPayload
)

// Job statuses.
const (
	StatusQueued    = api.StatusQueued
	StatusRunning   = api.StatusRunning
	StatusCompleted = api.StatusCompleted
	StatusAborted   = api.StatusAborted
)

// job is the server-internal job state. The record is mutated only under
// mu; readers take snapshots.
type job struct {
	c      *compiled
	ctx    context.Context // passed to sim.Run for cooperative cancellation
	cancel func()          // cancels ctx (typed sim.ClassCanceled abort)
	trace  *traceBuf       // nil unless the submit requested tracing
	tr     *jobTrace       // nil unless the server's flight recorder is on
	done   chan struct{}

	mu  sync.Mutex
	rec Record
}

// snapshot returns a copy of the record safe to serialize concurrently
// with job progress.
func (j *job) snapshot() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// cancelIfQueued cancels the job only while it is still waiting for a
// worker, reporting whether it did. Used when a waiting client
// disconnects: a queued job frees its slot, a running job is left to
// finish (its result is cacheable).
func (j *job) cancelIfQueued() bool {
	j.mu.Lock()
	queued := j.rec.Status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.cancel()
	}
	return queued
}

// finished reports whether the job has reached a terminal status.
func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}
