package cluster

import (
	"fmt"

	"involution/internal/server/api"
)

// IntegrityError is a well-formed HTTP exchange whose payload cannot be
// trusted: the record's result bytes do not match its integrity hash, a
// required field is missing, or the node echoed a different content key
// than the one submitted (a wrong-job reply). The transport and the node
// both said "fine"; the content disagrees. Always retryable — corruption
// is transient, and a replayed exchange re-reads the node's canonical
// record.
type IntegrityError struct {
	// Node is the base address whose reply failed verification.
	Node string
	// Reason describes what did not check out.
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("cluster: %s: integrity: %s", e.Node, e.Reason)
}

// Temporary is always true: integrity failures are retried like transport
// faults.
func (e *IntegrityError) Temporary() bool { return true }

// verifyRecord checks a job record received from node end to end:
// the status must be one the protocol defines, finished jobs must carry a
// result with an integrity hash, and whenever a hash is present it must
// match the canonical result bytes. Returns nil or an *IntegrityError.
//
// Nodes send the compact bytes they hashed, so the received bytes are
// hashed first as they are: a match means they are the canonical bytes.
// Only on a mismatch are they compacted and hashed again, so a result a
// node re-indented still verifies.
func verifyRecord(node string, rec *api.Record) error {
	switch rec.Status {
	case api.StatusQueued, api.StatusRunning, api.StatusCompleted, api.StatusAborted:
	default:
		return &IntegrityError{Node: node, Reason: fmt.Sprintf("unknown job status %q", rec.Status)}
	}
	if rec.Status == api.StatusCompleted {
		if len(rec.Result) == 0 {
			return &IntegrityError{Node: node, Reason: "completed record has no result payload"}
		}
		if rec.ResultHash == "" {
			return &IntegrityError{Node: node, Reason: "completed record has no result hash"}
		}
	}
	if rec.ResultHash != "" && api.ResultHashOfCompact(rec.Result) != rec.ResultHash {
		got := api.ResultHashOf(rec.Result)
		if got == "" {
			return &IntegrityError{Node: node, Reason: "result payload is not valid JSON"}
		}
		if got != rec.ResultHash {
			return &IntegrityError{Node: node, Reason: fmt.Sprintf("result hash mismatch: server stamped %.12s…, payload hashes to %.12s…", rec.ResultHash, got)}
		}
	}
	return nil
}
