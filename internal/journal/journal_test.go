package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type testHeader struct {
	Kind string `json:"kind"`
	Seed int    `json:"seed"`
}

type testRow struct {
	N int `json:"n"`
}

var hdr = testHeader{Kind: "test-journal", Seed: 7}

// pin stops the interval trigger from firing so only BatchRows, Sync and
// Close flush.
func pin(j *Journal) {
	j.mu.Lock()
	j.lastSync = time.Now().Add(time.Hour)
	j.mu.Unlock()
}

func mustCreate(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	pin(j)
	return j
}

func appendRows(t *testing.T, j *Journal, from, to int) {
	t.Helper()
	for n := from; n < to; n++ {
		if err := j.Append(testRow{N: n}); err != nil {
			t.Fatal(err)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func rowLine(n int) string { return fmt.Sprintf(`{"n":%d}`, n) }

// TestCrashMatrix writes a journal with two coalesced flushes and a
// buffered tail, then replays every crash a SIGKILL can leave: every byte
// prefix of the journal file against every index state (none, a leftover
// .idx.tmp only, the index before the last flush, the index after it, and
// the earlier index next to a leftover .idx.tmp). Resume must return
// exactly the rows the surviving index names, or — only where the journal
// is shorter than its index, which no crash can produce — ErrTruncated.
// Every successful resume must also leave a journal that takes appends and
// resumes again.
func TestCrashMatrix(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src.journal")
	j := mustCreate(t, src)
	appendRows(t, j, 0, 3)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	before := readFile(t, src+".idx")
	appendRows(t, j, 3, 5)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	after := readFile(t, src+".idx")
	appendRows(t, j, 5, 6) // buffered, never flushed
	full := readFile(t, src)
	j.f.Close()

	hdrLen := bytes.IndexByte(full, '\n') + 1
	type state struct {
		name     string
		idx, tmp []byte // nil: file absent
		rows     int    // rows the surviving index names
		bytes    int    // bytes the surviving index names
	}
	beforeIdx, afterIdx := parseIndex(t, before), parseIndex(t, after)
	states := []state{
		{name: "none", rows: 0, bytes: hdrLen},
		{name: "tmp-only", tmp: before[:len(before)/2], rows: 0, bytes: hdrLen},
		{name: "before", idx: before, rows: beforeIdx.Rows, bytes: int(beforeIdx.Bytes)},
		{name: "after", idx: after, rows: afterIdx.Rows, bytes: int(afterIdx.Bytes)},
		{name: "before+tmp", idx: before, tmp: after[:len(after)-3], rows: beforeIdx.Rows, bytes: int(beforeIdx.Bytes)},
	}
	if beforeIdx.Rows != 3 || afterIdx.Rows != 5 {
		t.Fatalf("flushes named %d and %d rows, want 3 and 5", beforeIdx.Rows, afterIdx.Rows)
	}

	dir := t.TempDir()
	for _, st := range states {
		for l := 0; l <= len(full); l++ {
			name := fmt.Sprintf("%s/len=%d", st.name, l)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.journal", st.name, l))
			write := func(p string, data []byte) {
				if data == nil {
					return
				}
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write(path, full[:l])
			write(path+".idx", st.idx)
			write(path+".idx.tmp", st.tmp)

			j, lines, err := Resume(path, hdr)
			if st.idx != nil && l < st.bytes {
				var je *Error
				if !errors.Is(err, ErrTruncated) || !errors.As(err, &je) {
					t.Fatalf("%s: err = %v, want *Error wrapping ErrTruncated", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(lines) != st.rows {
				t.Fatalf("%s: resumed %d rows, want %d", name, len(lines), st.rows)
			}
			for n, line := range lines {
				if string(line) != rowLine(n) {
					t.Fatalf("%s: row %d = %s, want %s", name, n, line, rowLine(n))
				}
			}
			if got := len(readFile(t, path)); got != st.bytes {
				t.Fatalf("%s: journal is %d bytes after resume, want %d", name, got, st.bytes)
			}
			if got := DurableRows(path); got != st.rows {
				t.Fatalf("%s: index names %d rows after resume, want %d", name, got, st.rows)
			}
			if err := j.Append(testRow{N: st.rows}); err != nil {
				t.Fatalf("%s: append after resume: %v", name, err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			j, lines, err = Resume(path, hdr)
			if err != nil || len(lines) != st.rows+1 || string(lines[st.rows]) != rowLine(st.rows) {
				t.Fatalf("%s: second resume: %d rows, err %v", name, len(lines), err)
			}
			j.Close()
		}
	}
}

func parseIndex(t *testing.T, data []byte) index {
	t.Helper()
	var idx index
	if err := json.Unmarshal(bytes.TrimSpace(data), &idx); err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestAppendCoalescesFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := mustCreate(t, path)
	appendRows(t, j, 0, BatchRows-1)
	if got := DurableRows(path); got != 0 {
		t.Fatalf("index names %d rows before the batch filled, want 0", got)
	}
	if j.Rows() != BatchRows-1 {
		t.Fatalf("Rows = %d, want %d (pending rows count)", j.Rows(), BatchRows-1)
	}
	appendRows(t, j, BatchRows-1, BatchRows)
	if got := DurableRows(path); got != BatchRows {
		t.Fatalf("index names %d rows after the batch filled, want %d", got, BatchRows)
	}

	// The interval trigger: a row appended after FlushInterval flushes.
	appendRows(t, j, BatchRows, BatchRows+1)
	if got := DurableRows(path); got != BatchRows {
		t.Fatalf("index advanced to %d rows without a trigger", got)
	}
	j.mu.Lock()
	j.lastSync = time.Now().Add(-FlushInterval)
	j.mu.Unlock()
	appendRows(t, j, BatchRows+1, BatchRows+2)
	if got := DurableRows(path); got != BatchRows+2 {
		t.Fatalf("index names %d rows after the interval passed, want %d", got, BatchRows+2)
	}

	// Sync flushes now; Close flushes the rest.
	pin(j)
	appendRows(t, j, BatchRows+2, BatchRows+3)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := DurableRows(path); got != BatchRows+3 {
		t.Fatalf("index names %d rows after Sync, want %d", got, BatchRows+3)
	}
	appendRows(t, j, BatchRows+3, BatchRows+4)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := DurableRows(path); got != BatchRows+4 {
		t.Fatalf("index names %d rows after Close, want %d", got, BatchRows+4)
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append(testRow{N: w*each + i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, lines, err := Resume(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	seen := make(map[string]bool)
	for _, line := range lines {
		seen[string(line)] = true
	}
	if len(lines) != workers*each || len(seen) != workers*each {
		t.Fatalf("resumed %d rows (%d distinct), want %d", len(lines), len(seen), workers*each)
	}
}

// TestCreateDropsStaleIndex: a fresh start over an old journal removes the
// old index before it truncates, so no crash leaves an index naming bytes
// that are gone.
func TestCreateDropsStaleIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := mustCreate(t, path)
	appendRows(t, j, 0, 10)
	j.Close()
	j = mustCreate(t, path)
	j.Close()
	if _, lines, err := Resume(path, hdr); err != nil || len(lines) != 0 {
		t.Fatalf("resume after a fresh start: %d rows, err %v", len(lines), err)
	}

	// Ordering: when the journal itself cannot be opened (here it is a
	// directory), the stale index must already be gone.
	stuck := filepath.Join(t.TempDir(), "stuck")
	if err := os.Mkdir(stuck, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stuck+".idx", []byte(`{"rows":3,"bytes":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(stuck, hdr); err == nil {
		t.Fatal("Create over a directory succeeded")
	}
	if _, err := os.Stat(stuck + ".idx"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale index survived a fresh start: %v", err)
	}
}

func TestResumeRejects(t *testing.T) {
	dir := t.TempDir()
	good := func(name string) string {
		path := filepath.Join(dir, name)
		j := mustCreate(t, path)
		appendRows(t, j, 0, 2)
		j.Close()
		return path
	}
	cases := []struct {
		name   string
		mangle func(path string)
		want   error
	}{
		{"index without journal", func(p string) { os.Remove(p) }, ErrMalformed},
		{"unparseable index", func(p string) { os.WriteFile(p+".idx", []byte("{rows"), 0o644) }, ErrMalformed},
		{"negative index", func(p string) { os.WriteFile(p+".idx", []byte(`{"rows":-1,"bytes":-5}`), 0o644) }, ErrMalformed},
		{"index mid-line", func(p string) {
			os.WriteFile(p+".idx", []byte(fmt.Sprintf(`{"rows":1,"bytes":%d}`, len(readFile(t, p))-2)), 0o644)
		}, ErrMalformed},
		{"index row count", func(p string) {
			os.WriteFile(p+".idx", []byte(fmt.Sprintf(`{"rows":5,"bytes":%d}`, len(readFile(t, p)))), 0o644)
		}, ErrMalformed},
		{"garbled header", func(p string) {
			data := readFile(t, p)
			os.WriteFile(p, append([]byte("#"), data[1:]...), 0o644)
		}, ErrMalformed},
		{"foreign file without index", func(p string) {
			os.Remove(p + ".idx")
			os.WriteFile(p, []byte("not a journal"), 0o644)
		}, ErrMalformed},
		{"shorter than index", func(p string) {
			data := readFile(t, p)
			os.WriteFile(p, data[:len(data)-1], 0o644)
		}, ErrTruncated},
		{"other header", func(p string) {
			data := readFile(t, p)
			os.WriteFile(p, bytes.Replace(data, []byte(`"seed":7`), []byte(`"seed":8`), 1), 0o644)
		}, ErrMismatch},
		{"other header, no index", func(p string) {
			data := readFile(t, p)
			os.WriteFile(p, bytes.Replace(data, []byte(`"seed":7`), []byte(`"seed":8`), 1), 0o644)
			os.Remove(p + ".idx")
		}, ErrMismatch},
	}
	for i, tc := range cases {
		path := good(fmt.Sprintf("case%d", i))
		tc.mangle(path)
		_, _, err := Resume(path, hdr)
		var je *Error
		if !errors.Is(err, tc.want) || !errors.As(err, &je) || je.Path != path {
			t.Errorf("%s: err = %v, want *Error wrapping %v", tc.name, err, tc.want)
		}
	}
}

func TestResumeMissingIsCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, lines, err := Resume(path, hdr)
	if err != nil || len(lines) != 0 {
		t.Fatalf("resume of nothing: %d rows, err %v", len(lines), err)
	}
	defer j.Close()
	if _, err := os.Stat(path + ".idx"); err != nil {
		t.Fatalf("fresh resume left no index: %v", err)
	}
}

func TestWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, s := range []string{"one", "two, longer"} {
		if err := WriteAtomic(path, []byte(s)); err != nil {
			t.Fatal(err)
		}
		if got := string(readFile(t, path)); got != s {
			t.Fatalf("contents %q, want %q", got, s)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if err := WriteAtomic(filepath.Join(path, "sub"), nil); err == nil {
		t.Fatal("write under a regular file succeeded")
	}
}
