package attack

import (
	"encoding/json"

	"involution/internal/journal"
)

// The generation journal is an internal/journal file with a typed search
// header. Unlike the job journals it is synced on every generation —
// generations are few and each one represents a whole batch of
// simulations, so coalescing buys nothing.
const (
	journalKind    = "attack-generation-journal"
	journalVersion = 1
)

// JournalHeader identifies the search a journal belongs to. Every field
// participates in the resume-compatibility check: a resume against a
// journal written by a different search (objective, searcher, seed or
// batch changed) would corrupt the searcher state, so it fails with
// journal.ErrMismatch.
type JournalHeader struct {
	Kind      string `json:"kind"`
	Version   int    `json:"version"`
	Objective string `json:"objective"`
	Searcher  string `json:"searcher"`
	Seed      int64  `json:"seed"`
	Batch     int    `json:"batch"`
}

// GenEntry is one journaled generation: every proposed candidate, fully
// scored, in proposal order. Replaying entries through Searcher.Observe
// reconstructs the searcher state bit-exactly (see Searcher).
type GenEntry struct {
	Gen    int      `json:"gen"`
	Scored []Scored `json:"scored"`
}

// Journal is the crash-safe generation log of one campaign.
type Journal struct {
	j       *journal.Journal
	entries []GenEntry // entries recovered on resume
}

// OpenJournal creates (or, with resume, reopens) the generation journal at
// path. On resume the stored header must match hdr exactly (modulo
// kind/version, which OpenJournal fills in); recovered entries are
// available through Entries for state replay, and appends continue after
// the durable prefix. Without resume an existing file is truncated.
func OpenJournal(path string, resume bool, hdr JournalHeader) (*Journal, error) {
	hdr.Kind = journalKind
	hdr.Version = journalVersion
	if !resume {
		j, err := journal.Create(path, hdr)
		if err != nil {
			return nil, err
		}
		return &Journal{j: j}, nil
	}
	j, lines, err := journal.Resume(path, hdr)
	if err != nil {
		return nil, err
	}
	entries := make([]GenEntry, len(lines))
	for n, line := range lines {
		if err := json.Unmarshal(line, &entries[n]); err != nil {
			j.Close()
			return nil, journal.Errorf(path, journal.ErrMalformed, "generation record %d: %v", n+1, err)
		}
	}
	return &Journal{j: j, entries: entries}, nil
}

// Entries returns the generations recovered by a resume, in order.
func (j *Journal) Entries() []GenEntry { return j.entries }

// Len is the number of generation entries in the journal.
func (j *Journal) Len() int { return j.j.Rows() }

// Append makes one generation durable before it returns.
func (j *Journal) Append(e GenEntry) error {
	if err := j.j.Append(e); err != nil {
		return err
	}
	return j.j.Sync()
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.j.Close() }
