package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"involution/internal/journal"
	"involution/internal/server"
	"involution/internal/server/api"
)

func completedRecord(t *testing.T, id string, payload string) api.Record {
	t.Helper()
	raw := json.RawMessage(payload)
	return api.Record{
		ID:         id,
		Status:     api.StatusCompleted,
		Result:     raw,
		ResultHash: api.ResultHashOf(raw),
	}
}

func TestJournalAppendLookupResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	r1 := completedRecord(t, "job-1", `{"status":"completed","events":3}`)
	r2 := completedRecord(t, "job-2", `{"status":"completed","events":7}`)
	if err := j.Append("key1", r1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("key2", r2); err != nil {
		t.Fatal(err)
	}
	// Duplicate append is a no-op, aborted records are not journaled.
	if err := j.Append("key1", r1); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("key3", api.Record{Status: api.StatusAborted}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2", j.Len())
	}
	j.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer j2.Close()
	got, ok := j2.Lookup("key1")
	if !ok || !reflect.DeepEqual(got, r1) {
		t.Fatalf("Lookup(key1) = %+v, %v; want the journaled record", got, ok)
	}
	if _, ok := j2.Lookup("key3"); ok {
		t.Fatal("aborted record leaked into the journal")
	}
	if j2.Len() != 2 {
		t.Fatalf("resumed Len = %d, want 2", j2.Len())
	}
}

func TestJournalResumeMissingIsFreshStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.ckpt")
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("resume of a missing journal must degrade to fresh: %v", err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("fresh journal Len = %d", j.Len())
	}
}

func TestJournalTruncatesNonDurableTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("key1", completedRecord(t, "job-1", `{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a SIGKILL mid-append: garbage past the durable index.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"key2","record":{"id":"half-wri`)
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("resume over a torn tail: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (tail truncated)", j2.Len())
	}
	if _, ok := j2.Lookup("key2"); ok {
		t.Fatal("non-durable tail row surfaced")
	}
}

func TestJournalCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) (*Journal, string) {
		t.Helper()
		path := filepath.Join(dir, name)
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		return j, path
	}

	// Journal shorter than its index.
	j, path := mk("short.ckpt")
	j.Append("k", completedRecord(t, "j", `{"a":1}`))
	j.Close()
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-10], 0o644)
	if _, err := OpenJournal(path, true); !errors.Is(err, journal.ErrTruncated) {
		t.Fatalf("err = %v, want journal.ErrTruncated", err)
	}

	// A journaled record whose bytes fail their own integrity hash.
	j, path = mk("corrupt.ckpt")
	j.Append("k", completedRecord(t, "j", `{"count":111}`))
	j.Close()
	data, _ = os.ReadFile(path)
	os.WriteFile(path, []byte(strings.ReplaceAll(string(data), `{"count":111}`, `{"count":999}`)), 0o644)
	if _, err := OpenJournal(path, true); !errors.Is(err, journal.ErrMalformed) {
		t.Fatalf("err = %v, want journal.ErrMalformed (hash mismatch)", err)
	}

	// Wrong journal kind (same-length rewrite so the index still fits).
	j, path = mk("kind.ckpt")
	j.Close()
	data, _ = os.ReadFile(path)
	os.WriteFile(path, []byte(strings.ReplaceAll(string(data), journalKind, "xluster-result-journal")), 0o644)
	if _, err := OpenJournal(path, true); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("err = %v, want journal.ErrMismatch", err)
	}

	// Index without a journal.
	path = filepath.Join(dir, "orphan.ckpt")
	os.WriteFile(path+".idx", []byte(`{"rows":0,"bytes":10}`), 0o644)
	if _, err := OpenJournal(path, true); !errors.Is(err, journal.ErrMalformed) {
		t.Fatalf("err = %v, want journal.ErrMalformed (orphan index)", err)
	}
}

// TestCoordinatorResumeReplaysWithoutNetwork runs a batch through a
// checkpointing coordinator against a live node, then "crashes" it and
// resumes against a fleet of dead addresses: every shard must replay from
// the journal byte-identically, with zero dispatches.
func TestCoordinatorResumeReplaysWithoutNetwork(t *testing.T) {
	addr := startNode(t, server.Config{})
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	reqs := []api.Request{
		{Netlist: bufNetlist, Horizon: 10},
		{Netlist: bufNetlist, Horizon: 20},
		{Netlist: bufNetlist, Horizon: 30},
	}

	c1, err := NewCoordinator(Options{
		Peers: []string{addr}, Timeout: 10 * time.Second,
		ProbeInterval: -1, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs1, err := c1.Run(context.Background(), reqs, 2)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	c1.Close()

	// The resumed coordinator can only answer from the journal: its only
	// peer is a dead port, and Retries 0 means a single doomed dispatch
	// would fail the run.
	c2, err := NewCoordinator(Options{
		Peers: []string{"127.0.0.1:1"}, Timeout: time.Second, Retries: -1,
		ProbeInterval: -1, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recs2, err := c2.Run(context.Background(), reqs, 2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// The journal stores results in canonical (compact) form, so compare
	// records with canonicalized payloads — same content, same hashes.
	canon := func(recs []api.Record) []api.Record {
		out := make([]api.Record, len(recs))
		for i, r := range recs {
			var buf bytes.Buffer
			if err := json.Compact(&buf, r.Result); err != nil {
				t.Fatalf("slot %d: result not valid JSON: %v", i, err)
			}
			r.Result = json.RawMessage(buf.String())
			out[i] = r
		}
		return out
	}
	if !reflect.DeepEqual(canon(recs1), canon(recs2)) {
		t.Fatal("replayed records differ from the originals")
	}
}

// TestCoordinatorResumeRedispatchesMissingSlots checkpoint-runs a prefix,
// then resumes with a longer request list: journaled slots replay, the new
// slot dispatches to the live node.
func TestCoordinatorResumeRedispatchesMissingSlots(t *testing.T) {
	addr := startNode(t, server.Config{})
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	prefix := []api.Request{{Netlist: bufNetlist, Horizon: 10}}
	full := []api.Request{{Netlist: bufNetlist, Horizon: 10}, {Netlist: bufNetlist, Horizon: 40}}

	c1, err := NewCoordinator(Options{
		Peers: []string{addr}, Timeout: 10 * time.Second,
		ProbeInterval: -1, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(context.Background(), prefix, 1); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	c1.Close()

	c2, err := NewCoordinator(Options{
		Peers: []string{addr}, Timeout: 10 * time.Second,
		ProbeInterval: -1, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recs, err := c2.Run(context.Background(), full, 2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for i, rec := range recs {
		if rec.Status != api.StatusCompleted {
			t.Fatalf("slot %d: status %s, want completed", i, rec.Status)
		}
	}
}

// TestJournalCoalescesFsyncs checks the cluster side of coalesced flushes:
// Lookup and Len serve every append at once, durable or not, the index
// never runs ahead of the appends, and Close flushes the buffered tail. The
// flush triggers themselves are tested in internal/journal.
func TestJournalCoalescesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	n := journal.BatchRows + 1
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := j.Append(key, completedRecord(t, key, `{"n":1}`)); err != nil {
			t.Fatal(err)
		}
		if j.Len() != i+1 {
			t.Fatalf("Len = %d after %d appends (lookup must not lag the flush)", j.Len(), i+1)
		}
		if d := journal.DurableRows(path); d > i+1 {
			t.Fatalf("index names %d rows after %d appends", d, i+1)
		}
	}
	if d := journal.DurableRows(path); d == 0 {
		t.Fatalf("%d appends never triggered a flush", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if d := journal.DurableRows(path); d != n {
		t.Fatalf("index names %d rows after Close, want %d", d, n)
	}

	// And the flushed journal resumes with every row intact.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer j2.Close()
	if j2.Len() != n {
		t.Fatalf("resumed Len = %d, want %d", j2.Len(), n)
	}
}

// TestJournalResumesV1File resumes testdata/v1/sweep.ckpt, written by the
// pre-internal/journal implementation.
func TestJournalResumesV1File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	for _, ext := range []string{"", ".idx"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", "sweep.ckpt"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := map[string]api.Record{
		"key-a": completedRecord(t, "job-1", `{"status":"completed","events":3}`),
		"key-b": completedRecord(t, "job-2", `{"status":"completed","events":7}`),
	}
	if j.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", j.Len(), len(want))
	}
	for key, rec := range want {
		got, ok := j.Lookup(key)
		if !ok || string(got.Result) != string(rec.Result) || got.ResultHash != rec.ResultHash {
			t.Fatalf("Lookup(%s) = %+v, %v; want %+v", key, got, ok, rec)
		}
	}
}
