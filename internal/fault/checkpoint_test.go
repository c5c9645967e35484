package fault

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"involution/internal/journal"
	"involution/internal/obs"
)

// writeJournal materializes a journal + index as the engine would have left
// them after rows completed, so tests can resume from a precisely known
// durable prefix.
func writeJournal(t *testing.T, path string, hdr journalHeader, rows []Row) {
	t.Helper()
	var buf []byte
	appendLine := func(v any) {
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	appendLine(hdr)
	for _, row := range rows {
		appendLine(row)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	idx := fmt.Sprintf(`{"rows":%d,"bytes":%d}`+"\n", len(rows), len(buf))
	if err := os.WriteFile(path+".idx", []byte(idx), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	refCSV, refJSONL := renderReport(t, ref)

	for _, completed := range []int{0, 1, len(scs) / 2, len(scs) - 1, len(scs)} {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")
		writeJournal(t, path, camp.binding(scs), ref.Rows[:completed])
		eng := &Engine{Campaign: camp, Opts: Options{Workers: 4, Checkpoint: path, Resume: true}}
		rep, err := eng.Run(context.Background(), scs)
		if err != nil {
			t.Fatalf("resume after %d rows: %v", completed, err)
		}
		csv, jsonl := renderReport(t, rep)
		if csv != refCSV {
			t.Errorf("resume after %d rows: CSV differs from uninterrupted run", completed)
		}
		if jsonl != refJSONL {
			t.Errorf("resume after %d rows: JSONL differs from uninterrupted run", completed)
		}
	}
}

func TestCheckpointResumeDiscardsNonDurableTail(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	writeJournal(t, path, camp.binding(scs), ref.Rows[:3])
	// A SIGKILL mid-append leaves bytes past the fsync'd index: garbage the
	// resume must silently drop, not data it may trust.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":99,"site":"half-writ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eng := &Engine{Campaign: camp, Opts: Options{Workers: 2, Checkpoint: path, Resume: true}}
	rep, err := eng.Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := renderReport(t, rep)
	refCSV, _ := renderReport(t, ref)
	if csv != refCSV {
		t.Error("resume with a torn tail differs from uninterrupted run")
	}
}

func TestCheckpointResumeFreshWhenAbsent(t *testing.T) {
	camp, scs := testCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	eng := &Engine{Campaign: camp, Opts: Options{Workers: 2, Checkpoint: path, Resume: true}}
	rep, err := eng.Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(scs) {
		t.Fatalf("fresh -resume run produced %d rows, want %d", len(rep.Rows), len(scs))
	}
	if _, err := os.Stat(path + ".idx"); err != nil {
		t.Fatalf("fresh -resume run left no index: %v", err)
	}
}

// TestCheckpointResumeWithoutIndex covers a kill between the header write
// and the first index replace: the journal is durable up to its header, so
// resume runs the whole campaign instead of refusing.
func TestCheckpointResumeWithoutIndex(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	writeJournal(t, path, camp.binding(scs), ref.Rows[:4])
	if err := os.Remove(path + ".idx"); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Campaign: camp, Opts: Options{Workers: 2, Checkpoint: path, Resume: true}}
	rep, err := eng.Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := renderReport(t, rep)
	refCSV, _ := renderReport(t, ref)
	if csv != refCSV {
		t.Error("resume without an index differs from uninterrupted run")
	}
}

// TestCheckpointResumesV1File resumes testdata/v1/campaign.ckpt, written by
// the pre-internal/journal implementation: five rows out of completion
// order plus a torn tail. The resumed report must equal a fresh run.
func TestCheckpointResumesV1File(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	for _, name := range []string{"campaign.ckpt", "campaign.ckpt.idx"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(path), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	eng := &Engine{Campaign: camp, Opts: Options{Workers: 2, Checkpoint: path, Resume: true, Registry: reg}}
	rep, err := eng.Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fault_engine_replayed_total", "").Value(); got != 5 {
		t.Errorf("replayed %d rows, want 5", got)
	}
	csv, _ := renderReport(t, rep)
	refCSV, _ := renderReport(t, ref)
	if csv != refCSV {
		t.Error("resume of a v1 checkpoint differs from uninterrupted run")
	}
}

func resumeErr(t *testing.T, camp *Campaign, scs []Scenario, path string) error {
	t.Helper()
	eng := &Engine{Campaign: camp, Opts: Options{Workers: 1, Checkpoint: path, Resume: true}}
	_, err := eng.Run(context.Background(), scs)
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	var je *journal.Error
	if !errors.As(err, &je) {
		t.Fatalf("not a *journal.Error: %v", err)
	}
	return err
}

func TestCheckpointTruncatedJournalRejected(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	writeJournal(t, path, camp.binding(scs), ref.Rows[:5])
	// Chop bytes the index declared durable.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resumeErr(t, camp, scs, path); !errors.Is(err, journal.ErrTruncated) {
		t.Fatalf("want journal.ErrTruncated, got %v", err)
	}
}

func TestCheckpointDuplicateScenarioRejected(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	writeJournal(t, path, camp.binding(scs), []Row{ref.Rows[0], ref.Rows[1], ref.Rows[0]})
	if err := resumeErr(t, camp, scs, path); !errors.Is(err, journal.ErrDuplicate) {
		t.Fatalf("want journal.ErrDuplicate, got %v", err)
	}
}

func TestCheckpointForeignCampaignRejected(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(h *journalHeader){
		"seed":    func(h *journalHeader) { h.Seed++ },
		"grid":    func(h *journalHeader) { h.Grid = gridHash(scs[1:]) },
		"circuit": func(h *journalHeader) { h.Circuit = "other" },
		"count":   func(h *journalHeader) { h.Scenarios-- },
		"horizon": func(h *journalHeader) { h.Horizon *= 2 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			hdr := camp.binding(scs)
			mutate(&hdr)
			path := filepath.Join(t.TempDir(), "campaign.ckpt")
			writeJournal(t, path, hdr, ref.Rows[:2])
			if err := resumeErr(t, camp, scs, path); !errors.Is(err, journal.ErrMismatch) {
				t.Fatalf("want journal.ErrMismatch, got %v", err)
			}
		})
	}
}

func TestCheckpointUnknownScenarioRejected(t *testing.T) {
	camp, scs := testCampaign(t)
	ref, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	alien := ref.Rows[0]
	alien.ID = 9999
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	writeJournal(t, path, camp.binding(scs), []Row{alien})
	if err := resumeErr(t, camp, scs, path); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("want journal.ErrMismatch, got %v", err)
	}
}

func TestCheckpointMalformedRejected(t *testing.T) {
	camp, scs := testCampaign(t)
	dir := t.TempDir()
	// Index without its journal.
	widow := filepath.Join(dir, "widow.ckpt")
	if err := os.WriteFile(widow+".idx", []byte(`{"rows":1,"bytes":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resumeErr(t, camp, scs, widow); !errors.Is(err, journal.ErrMalformed) {
		t.Fatalf("widowed index: want journal.ErrMalformed, got %v", err)
	}

	// Garbage inside the durable region.
	garbled := filepath.Join(dir, "garbled.ckpt")
	body := []byte("not json at all\n")
	if err := os.WriteFile(garbled, body, 0o644); err != nil {
		t.Fatal(err)
	}
	idx := fmt.Sprintf(`{"rows":0,"bytes":%d}`, len(body))
	if err := os.WriteFile(garbled+".idx", []byte(idx), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resumeErr(t, camp, scs, garbled); !errors.Is(err, journal.ErrMalformed) {
		t.Fatalf("garbled journal: want journal.ErrMalformed, got %v", err)
	}
}

func TestCheckpointJournalWrittenDuringRun(t *testing.T) {
	camp, scs := testCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	eng := &Engine{Campaign: camp, Opts: Options{Workers: 4, Checkpoint: path}}
	rep, err := eng.Run(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	j, rows, err := openJournal(path, camp.binding(scs), true, scenarioIndex(scs))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(rows) != len(rep.Rows) {
		t.Fatalf("journal holds %d rows, report %d", len(rows), len(rep.Rows))
	}
}

// scenarioIndex mirrors the engine's id → position map for direct journal
// inspection in tests.
func scenarioIndex(scs []Scenario) map[int]int {
	index := make(map[int]int, len(scs))
	for i, sc := range scs {
		index[sc.ID] = i
	}
	return index
}
