package fault

// Crash-safe campaign checkpointing on internal/journal: the header binds
// a journal to one exact campaign (circuit, seed, horizon, scenario count
// and a hash of the scenario grid), every row is one completed Row in
// completion order. Duplicate rows and scenario ids outside the grid are
// corruption; rows past the durable index re-run on resume.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"involution/internal/journal"
)

const (
	journalKind    = "fault-campaign-journal"
	journalVersion = 1
)

// journalHeader binds a journal to one campaign. Any mismatch on resume is
// a journal.ErrMismatch: rows from a different seed, grid or circuit must
// never be merged.
type journalHeader struct {
	Kind      string  `json:"kind"`
	Version   int     `json:"version"`
	Circuit   string  `json:"circuit"`
	Seed      int64   `json:"seed"`
	Horizon   float64 `json:"horizon"`
	Scenarios int     `json:"scenarios"`
	// Grid is an FNV-1a hash over every scenario's (id, site, model)
	// identity, so a journal cannot be resumed against a reshaped grid
	// even if the counts happen to agree.
	Grid string `json:"grid"`
}

// gridHash fingerprints the scenario grid with FNV-1a.
func gridHash(scenarios []Scenario) string {
	h := fnv.New64a()
	for _, sc := range scenarios {
		fmt.Fprintf(h, "%d|%s|%s\n", sc.ID, sc.Site.Label(), sc.Model.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// openJournal starts the checkpoint at path, or with resume reopens it and
// returns its durable rows, each checked against the scenario grid (ids
// must exist in known, at most once).
func openJournal(path string, hdr journalHeader, resume bool, known map[int]int) (*journal.Journal, []Row, error) {
	if !resume {
		j, err := journal.Create(path, hdr)
		return j, nil, err
	}
	j, lines, err := journal.Resume(path, hdr)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[int]bool, len(lines))
	rows := make([]Row, 0, len(lines))
	for n, line := range lines {
		var row Row
		err := json.Unmarshal(line, &row)
		switch _, ok := known[row.ID]; {
		case err != nil:
			err = journal.Errorf(path, journal.ErrMalformed, "row record %d: %v", n+1, err)
		case seen[row.ID]:
			err = journal.Errorf(path, journal.ErrDuplicate, "scenario id %d appears twice", row.ID)
		case !ok:
			err = journal.Errorf(path, journal.ErrMismatch, "scenario id %d is not in the campaign grid", row.ID)
		}
		if err != nil {
			j.Close()
			return nil, nil, err
		}
		seen[row.ID] = true
		rows = append(rows, row)
	}
	return j, rows, nil
}
