// Package journal is the repo's one crash-safe append-only JSONL journal:
// the durable log under fault campaign checkpoints, the cluster
// coordinator's result checkpoint and the attack generation journal.
//
// # Format
//
// Line 1 of the journal file is a typed JSON header binding the journal to
// one run; every further line is one JSON row. A sidecar index
// (<path>.idx, {"rows":N,"bytes":M}) names the durable prefix: M bytes of
// journal holding the header and N rows.
//
// # Protocol
//
// Rows go to the OS buffer on Append. A flush fsyncs the journal and only
// then replaces the index via WriteAtomic (temp file, fsync, rename), so
// the index never names bytes the journal has not absorbed. Flushes are
// coalesced: one per BatchRows rows or FlushInterval, whichever comes
// first, plus Sync and Close. Resume trusts exactly the index's prefix:
// bytes beyond it are the torn or buffered tail of a crash and are
// truncated away; a journal shorter than its index, an unparseable
// durable region or a header of a different run is a typed *Error. Two
// crash windows have fixed rules: a journal with no index (killed between
// Create's header write and its first index replace) is durable up to its
// header line only and resumes with zero rows; and Create removes any
// stale index before it truncates the journal, so an index never outlives
// the bytes it names. An index without its journal stays ErrMalformed.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
	"time"
)

// Flush coalescing bounds: a flush runs once this many rows are buffered
// or this much time has passed since the last one. Rows buffered at a
// crash are absent from the index; callers re-derive them on resume.
const (
	BatchRows     = 32
	FlushInterval = 100 * time.Millisecond
)

// Corruption sentinels, surfaced wrapped in an *Error; match with
// errors.Is.
var (
	// ErrTruncated: the journal is shorter than its index claims, so
	// durable data was lost.
	ErrTruncated = errors.New("journal: truncated below its durable index")
	// ErrMalformed: the index, the durable region or a row in it cannot be
	// parsed or fails its own checks, or an index has no journal.
	ErrMalformed = errors.New("journal: malformed")
	// ErrMismatch: the journal belongs to a different run (its header, or a
	// row the caller cannot place, does not match).
	ErrMismatch = errors.New("journal: belongs to a different run")
	// ErrDuplicate: the durable region records the same entry twice.
	ErrDuplicate = errors.New("journal: records an entry twice")
)

// Error is a typed journal failure: a sentinel or an I/O error pinned to
// the journal path.
type Error struct {
	Path   string
	Err    error  // one of the sentinels above, or an I/O error
	Detail string // human-readable specifics
}

// Error describes the failure.
func (e *Error) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("%v (journal %s)", e.Err, e.Path)
	}
	return fmt.Sprintf("%v (journal %s): %s", e.Err, e.Path, e.Detail)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *Error) Unwrap() error { return e.Err }

// Errorf builds an *Error for the journal at path.
func Errorf(path string, sentinel error, format string, args ...any) error {
	return &Error{Path: path, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
}

type index struct {
	Rows  int   `json:"rows"`
	Bytes int64 `json:"bytes"`
}

// Journal is the append side of an open journal. All methods are safe for
// concurrent use.
type Journal struct {
	path string
	f    *os.File

	mu       sync.Mutex
	idx      index // rows and bytes written, durable or not
	pending  int   // rows written since the last flush
	lastSync time.Time
	err      error // sticky: a failed write leaves the tail unknown
}

// Create starts a fresh journal at path holding only header, truncating
// any previous one, and makes the header durable before returning.
func Create(path string, header any) (*Journal, error) {
	line, err := json.Marshal(header)
	if err != nil {
		return nil, &Error{Path: path, Err: err}
	}
	// The old index names bytes the truncation below destroys; drop it
	// first so a crash in between leaves a resumable index-less journal.
	if err := os.Remove(path + ".idx"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, &Error{Path: path, Err: err}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, &Error{Path: path, Err: err}
	}
	line = append(line, '\n')
	if _, err := f.Write(line); err != nil {
		f.Close()
		return nil, &Error{Path: path, Err: err}
	}
	return open(path, f, index{Bytes: int64(len(line))})
}

// Resume reopens the journal at path for appending and returns its durable
// rows as raw JSON lines, in append order. The stored header must decode
// to a value deeply equal to header, else ErrMismatch. A missing journal
// (and index) degrades to Create.
func Resume(path string, header any) (*Journal, [][]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if _, ierr := os.Stat(path + ".idx"); ierr == nil {
			return nil, nil, Errorf(path, ErrMalformed, "index exists but journal is missing")
		}
		j, err := Create(path, header)
		return j, nil, err
	}
	if err != nil {
		return nil, nil, &Error{Path: path, Err: err}
	}
	idx, err := readIndex(path)
	if errors.Is(err, os.ErrNotExist) {
		// No index was ever written: only the header line is durable.
		n := bytes.IndexByte(data, '\n')
		if n < 0 {
			want, _ := json.Marshal(header)
			if !bytes.HasPrefix(want, data) {
				return nil, nil, Errorf(path, ErrMalformed, "no index and no header line")
			}
			// A torn header write: nothing was ever durable.
			j, err := Create(path, header)
			return j, nil, err
		}
		idx = index{Bytes: int64(n + 1)}
	} else if err != nil {
		return nil, nil, Errorf(path, ErrMalformed, "cannot read index: %v", err)
	}
	if int64(len(data)) < idx.Bytes {
		return nil, nil, Errorf(path, ErrTruncated, "journal is %d bytes, index names %d durable", len(data), idx.Bytes)
	}

	lines := bytes.Split(data[:idx.Bytes], []byte("\n"))
	// A durable region always ends with the newline of its last line.
	if len(lines[len(lines)-1]) != 0 {
		return nil, nil, Errorf(path, ErrMalformed, "durable region does not end at a line boundary")
	}
	lines = lines[:len(lines)-1]
	if len(lines) != idx.Rows+1 {
		return nil, nil, Errorf(path, ErrMalformed, "durable region has %d lines, index names %d rows", len(lines), idx.Rows)
	}
	got := reflect.New(reflect.TypeOf(header))
	if err := json.Unmarshal(lines[0], got.Interface()); err != nil {
		return nil, nil, Errorf(path, ErrMalformed, "cannot parse header: %v", err)
	}
	if !reflect.DeepEqual(got.Elem().Interface(), header) {
		want, _ := json.Marshal(header)
		return nil, nil, Errorf(path, ErrMismatch, "header %s, want %s", lines[0], want)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, &Error{Path: path, Err: err}
	}
	if err := f.Truncate(idx.Bytes); err != nil {
		f.Close()
		return nil, nil, &Error{Path: path, Err: err}
	}
	if _, err := f.Seek(idx.Bytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, &Error{Path: path, Err: err}
	}
	j, err := open(path, f, idx)
	if err != nil {
		return nil, nil, err
	}
	return j, lines[1:], nil
}

// open wraps f, positioned at the end of idx, and flushes so the index
// names exactly idx.
func open(path string, f *os.File, idx index) (*Journal, error) {
	j := &Journal{path: path, f: f, idx: idx}
	if err := j.flushLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Append writes v as one JSON row. The row reaches the OS buffer at once;
// it becomes durable at the next flush, which Append runs itself when
// BatchRows rows are pending or FlushInterval has passed.
func (j *Journal) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return &Error{Path: j.path, Err: err}
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.Write(line); err != nil {
		j.err = &Error{Path: j.path, Err: err}
		return j.err
	}
	j.idx.Rows++
	j.idx.Bytes += int64(len(line))
	j.pending++
	if j.pending < BatchRows && time.Since(j.lastSync) < FlushInterval {
		return nil
	}
	return j.flushLocked()
}

// Sync makes every appended row durable now.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.pending == 0 {
		return nil
	}
	return j.flushLocked()
}

// Rows is the number of rows in the journal, durable or still pending.
func (j *Journal) Rows() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.idx.Rows
}

// Close flushes pending rows and releases the journal file, so a clean
// shutdown loses nothing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.err
	if err == nil && j.pending > 0 {
		err = j.flushLocked()
	}
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = &Error{Path: j.path, Err: cerr}
	}
	return err
}

// flushLocked fsyncs the journal, then replaces the index. Callers hold mu
// (or own j exclusively).
func (j *Journal) flushLocked() error {
	if err := j.f.Sync(); err != nil {
		j.err = &Error{Path: j.path, Err: err}
		return j.err
	}
	data, err := json.Marshal(j.idx)
	if err != nil {
		return &Error{Path: j.path, Err: err}
	}
	if err := WriteAtomic(j.path+".idx", append(data, '\n')); err != nil {
		j.err = &Error{Path: j.path, Err: err}
		return j.err
	}
	j.pending = 0
	j.lastSync = time.Now()
	return nil
}

func readIndex(path string) (index, error) {
	var idx index
	data, err := os.ReadFile(path + ".idx")
	if err != nil {
		return idx, err
	}
	err = json.Unmarshal(bytes.TrimSpace(data), &idx)
	if err == nil && (idx.Rows < 0 || idx.Bytes < 0) {
		err = fmt.Errorf("negative extent %+v", idx)
	}
	return idx, err
}

// DurableRows is the row count the index of the journal at path names: 0
// when the index is absent or unparseable. Pollers use it to wait for a
// run to reach a durable point.
func DurableRows(path string) int {
	idx, err := readIndex(path)
	if err != nil {
		return 0
	}
	return idx.Rows
}

// WriteAtomic replaces path with data: it writes path+".tmp", fsyncs it
// and renames it over path, so a reader sees the old or the new contents,
// never a mix.
func WriteAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
