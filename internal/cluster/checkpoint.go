package cluster

// Coordinator crash-safety: a content-addressed result journal on
// internal/journal.
//
// Line 1 is a header naming the format; every further line is one
// *completed* job record keyed by its request's content key
// (api.Request.RouteKey). Because completed simd results are pure
// functions of the canonical request, the binding is loose — any sweep or
// campaign may consult any journal; a key either matches its request or is
// never looked up — and one journal can back a whole multi-phase sweep.
// A SIGKILLed coordinator loses at most the rows past the durable index;
// on resume it re-dispatches those slots, whose results are deterministic
// and land byte-identical. A duplicate key or a record whose result bytes
// no longer match their integrity hash rejects the resume.

import (
	"encoding/json"
	"sync"

	"involution/internal/journal"
	"involution/internal/server/api"
)

const (
	journalKind    = "cluster-result-journal"
	journalVersion = 1
)

type journalHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
}

// journalEntry is one durable line after the header.
type journalEntry struct {
	Key    string     `json:"key"`
	Record api.Record `json:"record"`
}

// Journal is the coordinator's crash-safe result store. Lookup and Append
// are safe for concurrent use by shard workers.
type Journal struct {
	j *journal.Journal

	mu   sync.Mutex
	recs map[string]api.Record
}

// OpenJournal opens the checkpoint at path. With resume true an existing
// journal's durable rows are loaded and replayable through Lookup (a
// missing journal degrades to a fresh start); with resume false any
// existing journal is truncated.
func OpenJournal(path string, resume bool) (*Journal, error) {
	hdr := journalHeader{Kind: journalKind, Version: journalVersion}
	if !resume {
		j, err := journal.Create(path, hdr)
		if err != nil {
			return nil, err
		}
		return &Journal{j: j, recs: make(map[string]api.Record)}, nil
	}
	j, lines, err := journal.Resume(path, hdr)
	if err != nil {
		return nil, err
	}
	recs := make(map[string]api.Record, len(lines))
	for n, line := range lines {
		var e journalEntry
		err := json.Unmarshal(line, &e)
		_, dup := recs[e.Key]
		switch {
		case err != nil:
			err = journal.Errorf(path, journal.ErrMalformed, "record %d: %v", n+1, err)
		case e.Key == "":
			err = journal.Errorf(path, journal.ErrMalformed, "record %d has no content key", n+1)
		case dup:
			err = journal.Errorf(path, journal.ErrDuplicate, "content key %.12s… appears twice", e.Key)
		default:
			// The journal rode a disk between coordinator lives; a corrupted
			// checkpoint must not poison a resumed sweep any more than a
			// corrupted wire reply could.
			if verr := verifyRecord("journal", &e.Record); verr != nil {
				err = journal.Errorf(path, journal.ErrMalformed, "record %d (%.12s…): %v", n+1, e.Key, verr)
			}
		}
		if err != nil {
			j.Close()
			return nil, err
		}
		recs[e.Key] = e.Record
	}
	return &Journal{j: j, recs: recs}, nil
}

// Lookup returns the journaled record for a content key, if present.
func (j *Journal) Lookup(key string) (api.Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[key]
	return rec, ok
}

// Len returns the number of journaled results.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Append records one completed record under its content key. Lookup sees
// it at once; it becomes durable at the journal's next coalesced flush.
// Re-appending a key already journaled is a no-op (hedges and sweep phases
// sharing requests make duplicates normal, not corrupt). Only completed
// records are accepted: aborted outcomes may be node-local accidents and
// must re-run on resume.
func (j *Journal) Append(key string, rec api.Record) error {
	if rec.Status != api.StatusCompleted {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.recs[key]; dup {
		return nil
	}
	if err := j.j.Append(journalEntry{Key: key, Record: rec}); err != nil {
		return err
	}
	j.recs[key] = rec
	return nil
}

// Close flushes the buffered rows and releases the journal file.
func (j *Journal) Close() error { return j.j.Close() }
