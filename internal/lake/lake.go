// Package lake implements a persistent content-addressed result store —
// the durable cache tier under simd's in-memory LRU and the substrate of
// cross-campaign dedup. Completed simulation results are pure functions of
// their canonical request hash (the η-model makes a run deterministic in
// its content-addressed inputs), so a result written once is correct
// forever: the lake never invalidates, it only fills and, under a byte
// bound, forgets its oldest segments.
//
// # Layout
//
// A lake is a directory of append-only segment files plus one fsync'd
// index:
//
//	seg-00000001.lake   entries, oldest segment first
//	seg-00000002.lake   …
//	lake.idx            atomic JSON index: {segments: [{name, bytes, sealed}]}
//
// Each entry is a JSON meta header line followed by the exact payload
// bytes (the canonical-compact result JSON a node served) and a trailing
// newline:
//
//	{"key":"<sha256>","hash":"<sha256>","circuit":"spf","len":123,"at":"…"}\n
//	<123 payload bytes>\n
//
// Storing the served bytes verbatim makes a lake hit byte-identical to the
// original response by construction, and serving one is near-zero-copy:
// one pread of the payload span, one SHA-256 over it, no JSON decode.
//
// # Durability
//
// The index follows internal/journal's protocol: it is replaced with
// journal.WriteAtomic and names only bytes the segment files have durably
// absorbed; fsyncs are coalesced at journal.BatchRows/FlushInterval.
// Unlike a journal, the scan on open is tolerant: beyond a segment's
// durable prefix a complete, well-formed entry is kept (every read
// re-verifies its payload hash anyway), and the first torn or malformed
// entry truncates the rest. A torn write can therefore cost the buffered
// tail, never a corrupt hit: Get recomputes the payload's SHA-256 on every
// read and quarantines (drops, counts, refuses to serve) any entry that
// fails.
//
// # Concurrency
//
// One writer, any number of readers: Put takes the write lock; Get holds
// the read lock across a positioned read (pread), so segment GC — which
// closes and deletes files under the write lock — can never yank a file
// mid-read.
package lake

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"involution/internal/journal"
)

const (
	indexName    = "lake.idx"
	indexKind    = "result-lake"
	indexVersion = 1
	segPrefix    = "seg-"
	segSuffix    = ".lake"
)

// ErrReadOnly reports a mutation attempted on a read-only lake.
var ErrReadOnly = errors.New("lake: read-only")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("lake: closed")

// Options configures Open.
type Options struct {
	// Dir is the lake directory (created if missing, unless ReadOnly).
	Dir string
	// MaxBytes bounds the lake's total payload+header bytes; exceeding it
	// garbage-collects whole oldest segments. 0 uses the 1 GiB default;
	// negative means unbounded.
	MaxBytes int64
	// SegmentBytes rolls the active segment once it exceeds this size. 0
	// uses the default (MaxBytes/16, clamped to [1 MiB, 64 MiB]); it is
	// always clamped to at most MaxBytes/4 so GC granularity stays useful.
	SegmentBytes int64
	// ReadOnly opens without a writer: no truncation of torn tails, no
	// index writes, Put refused. This is how `simctl query` reads a lake a
	// live daemon may still be appending to.
	ReadOnly bool
}

// Meta is one entry's header: everything queryable without touching the
// payload.
type Meta struct {
	// Key is the canonical request content hash the result answers.
	Key string `json:"key"`
	// ResultHash is the hex SHA-256 of the payload bytes — the same value
	// as api.Record.ResultHash, since payloads are stored canonical-compact.
	ResultHash string `json:"hash"`
	// Circuit names the simulated circuit.
	Circuit string `json:"circuit,omitempty"`
	// Class is the result's abort class ("" for completed results — the
	// only kind a cache stores today; the field future-proofs the format).
	Class string `json:"class,omitempty"`
	// Len is the payload byte length.
	Len int `json:"len"`
	// At is the wall-clock store time (not part of the payload, so it never
	// perturbs byte-identical replay).
	At time.Time `json:"at"`
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Entries  int   // live entries
	Bytes    int64 // total bytes across live segments
	Segments int   // live segment files
	Hits     int64 // Get calls served
	Misses   int64 // Get calls that found no entry
	Corrupt  int64 // entries quarantined (read verification or scan failure)
	Puts     int64 // entries written
	GCSegs   int64 // segments garbage-collected by the byte bound
}

// segment is one on-disk segment file.
type segment struct {
	name string
	f    *os.File // read handle; pread-shared by all readers
	size int64    // bytes written (durable or buffered)
	keys int      // entries indexed from this segment
}

// entry locates one payload and carries its queryable meta.
type entry struct {
	seg  *segment
	off  int64 // payload offset within the segment
	meta Meta
}

// Lake is an open result lake. Safe for concurrent use: one writer (Put),
// any number of readers (Get/Scan/Fetch).
type Lake struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	byKey    map[string]*entry
	segs     []*segment // oldest first; last is the active one when writable
	active   *os.File   // append handle on the last segment (nil: read-only)
	bytes    int64
	order    []string // insertion-ordered keys, for deterministic Scan
	pending  int
	lastSync time.Time
	nextSeg  int
	closed   bool

	hits, misses, corrupt, puts, gcSegs atomic.Int64
}

type indexFile struct {
	Kind     string     `json:"kind"`
	Version  int        `json:"version"`
	Segments []indexSeg `json:"segments"`
}

type indexSeg struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Sealed bool   `json:"sealed"`
}

// Open opens (creating, unless ReadOnly) the lake at opts.Dir and rebuilds
// the in-memory key index from the segment files.
func Open(opts Options) (*Lake, error) {
	if opts.Dir == "" {
		return nil, errors.New("lake: no directory")
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 1 << 30
	}
	if opts.SegmentBytes <= 0 {
		s := opts.MaxBytes / 16
		if s < 1<<20 || opts.MaxBytes < 0 {
			s = 1 << 20
		}
		if s > 64<<20 {
			s = 64 << 20
		}
		opts.SegmentBytes = s
	}
	if opts.MaxBytes > 0 && opts.SegmentBytes > opts.MaxBytes/4 {
		opts.SegmentBytes = max64(opts.MaxBytes/4, 1)
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("lake: %w", err)
		}
	}
	l := &Lake{
		dir:      opts.Dir,
		opts:     opts,
		byKey:    make(map[string]*entry),
		nextSeg:  1,
		lastSync: time.Now(),
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	if !opts.ReadOnly {
		if err := l.openActive(); err != nil {
			l.closeFiles()
			return nil, err
		}
	}
	return l, nil
}

// load reads the index (if any), scans every segment's recoverable prefix,
// and rebuilds the key map. Unreadable segments are quarantined wholesale,
// never fatal: a cache degrades to misses, it does not refuse to start.
func (l *Lake) load() error {
	idx := l.readIndex()
	durable := make(map[string]int64, len(idx.Segments))
	for _, s := range idx.Segments {
		durable[s.Name] = s.Bytes
	}

	names, err := l.segmentNames()
	if err != nil {
		return err
	}
	for _, name := range names {
		num, err := segNumber(name)
		if err != nil {
			// Not a segment this lake wrote: quarantine it (leave it on
			// disk unread) rather than guess its place in the sequence.
			l.corrupt.Add(1)
			continue
		}
		path := filepath.Join(l.dir, name)
		f, err := os.Open(path)
		if err != nil {
			l.corrupt.Add(1)
			continue
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			l.corrupt.Add(1)
			continue
		}
		if want, ok := durable[name]; ok && st.Size() < want {
			// The segment is shorter than its fsync'd index claims: durable
			// data was lost underneath us. Quarantine the whole segment —
			// nothing in it can be trusted structurally; per-read hash checks
			// could still pass, but a store that shrinks on its own has no
			// business serving "cached" replies.
			f.Close()
			l.corrupt.Add(1)
			continue
		}
		seg := &segment{name: name, f: f}
		good, n, torn := scanSegment(f)
		seg.size = good
		if torn {
			l.corrupt.Add(1)
		}
		if !l.opts.ReadOnly && good < st.Size() {
			// Drop the torn tail so the next append starts on an entry
			// boundary. Needs a write handle; best-effort.
			if wf, err := os.OpenFile(path, os.O_WRONLY, 0o644); err == nil {
				wf.Truncate(good)
				wf.Close()
			}
		}
		for _, e := range n {
			e.seg = seg
			if old, dup := l.byKey[e.meta.Key]; dup {
				// Content addressing makes duplicates byte-equivalent; keep
				// the newer location, don't double-count the key.
				old.seg.keys--
				l.replaceOrdered(e.meta.Key)
			} else {
				l.order = append(l.order, e.meta.Key)
			}
			l.byKey[e.meta.Key] = e
			seg.keys++
		}
		l.segs = append(l.segs, seg)
		l.bytes += seg.size
		if num >= l.nextSeg {
			l.nextSeg = num + 1
		}
	}
	return nil
}

// replaceOrdered keeps order free of duplicates when a key reappears.
func (l *Lake) replaceOrdered(key string) {
	for i, k := range l.order {
		if k == key {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.order = append(l.order, key)
}

// readIndex loads lake.idx; a missing or malformed index degrades to an
// empty one (segments are then scanned from byte 0, which the tolerant
// scanner handles).
func (l *Lake) readIndex() indexFile {
	var idx indexFile
	raw, err := os.ReadFile(filepath.Join(l.dir, indexName))
	if err != nil {
		return idx
	}
	if json.Unmarshal(bytes.TrimSpace(raw), &idx) != nil || idx.Kind != indexKind || idx.Version != indexVersion {
		l.corrupt.Add(1)
		return indexFile{}
	}
	return idx
}

// segmentNames lists the directory's segment files in name (= creation)
// order.
func (l *Lake) segmentNames() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if errors.Is(err, os.ErrNotExist) && l.opts.ReadOnly {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// scanSegment parses entries from the start of f, stopping at the first
// torn or malformed one. It returns the byte length of the well-formed
// prefix, the parsed entries (seg left nil), and whether a torn tail was
// seen (a clean EOF is not torn).
func scanSegment(f *os.File) (good int64, entries []*entry, torn bool) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, true
	}
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	for {
		header, err := r.ReadBytes('\n')
		if err == io.EOF && len(header) == 0 {
			return off, entries, false
		}
		if err != nil {
			return off, entries, true
		}
		var m Meta
		if json.Unmarshal(header, &m) != nil || m.Key == "" || m.Len < 0 {
			return off, entries, true
		}
		payloadOff := off + int64(len(header))
		// Skip payload + trailing newline without materializing it.
		skip := int64(m.Len) + 1
		if n, err := io.CopyN(io.Discard, r, skip); err != nil || n != skip {
			return off, entries, true
		}
		entries = append(entries, &entry{off: payloadOff, meta: m})
		off = payloadOff + skip
	}
}

// openActive prepares the append handle: the last unsealed segment if its
// size still fits, otherwise a fresh segment.
func (l *Lake) openActive() error {
	if n := len(l.segs); n > 0 && l.segs[n-1].size < l.opts.SegmentBytes {
		seg := l.segs[n-1]
		f, err := os.OpenFile(filepath.Join(l.dir, seg.name), os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("lake: %w", err)
		}
		if _, err := f.Seek(seg.size, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("lake: %w", err)
		}
		l.active = f
		return nil
	}
	return l.rollLocked()
}

// rollLocked seals the current active segment and starts a new one.
// Callers hold mu (or are inside Open).
func (l *Lake) rollLocked() error {
	if l.active != nil {
		l.active.Sync()
		l.active.Close()
		l.active = nil
	}
	name := fmt.Sprintf("%s%08d%s", segPrefix, l.nextSeg, segSuffix)
	l.nextSeg++
	path := filepath.Join(l.dir, name)
	wf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	rf, err := os.Open(path)
	if err != nil {
		wf.Close()
		return fmt.Errorf("lake: %w", err)
	}
	l.segs = append(l.segs, &segment{name: name, f: rf})
	l.active = wf
	return nil
}

// Put stores a payload under its content key. The payload must be the
// canonical-compact response bytes; its SHA-256 is computed here so the
// stored hash always matches the stored bytes. Re-putting a key already
// present is a no-op (content addressing makes the values byte-equal).
// Payloads alone exceeding the byte bound are refused silently — one huge
// trace must not wipe the lake.
func (l *Lake) Put(key, circuit, class string, payload []byte) error {
	sum := sha256.Sum256(payload)
	m := Meta{
		Key:        key,
		ResultHash: hex.EncodeToString(sum[:]),
		Circuit:    circuit,
		Class:      class,
		Len:        len(payload),
		At:         time.Now().UTC(),
	}
	header, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lake: encoding meta: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.active == nil:
		return ErrReadOnly
	}
	if _, dup := l.byKey[key]; dup {
		return nil
	}
	entryBytes := int64(len(header)) + 1 + int64(len(payload)) + 1
	if l.opts.MaxBytes > 0 && entryBytes > l.opts.MaxBytes {
		return nil
	}
	cur := l.segs[len(l.segs)-1]
	if cur.size > 0 && cur.size+entryBytes > l.opts.SegmentBytes {
		if err := l.syncLocked(); err != nil { // seal with a durable index row
			return err
		}
		if err := l.rollLocked(); err != nil {
			return err
		}
		cur = l.segs[len(l.segs)-1]
	}

	line := make([]byte, 0, entryBytes)
	line = append(line, header...)
	line = append(line, '\n')
	payloadOff := cur.size + int64(len(line))
	line = append(line, payload...)
	line = append(line, '\n')
	if _, err := l.active.Write(line); err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	cur.size += entryBytes
	cur.keys++
	l.bytes += entryBytes
	l.byKey[key] = &entry{seg: cur, off: payloadOff, meta: m}
	l.order = append(l.order, key)
	l.puts.Add(1)
	l.pending++

	if err := l.gcLocked(); err != nil {
		return err
	}
	if l.pending >= journal.BatchRows || time.Since(l.lastSync) >= journal.FlushInterval {
		return l.syncLocked()
	}
	return nil
}

// gcLocked drops whole oldest segments while the byte bound is exceeded.
// The active segment is never dropped (SegmentBytes ≤ MaxBytes/4 keeps it
// from monopolizing the bound). Callers hold mu.
func (l *Lake) gcLocked() error {
	if l.opts.MaxBytes <= 0 {
		return nil
	}
	dropped := false
	for l.bytes > l.opts.MaxBytes && len(l.segs) > 1 {
		seg := l.segs[0]
		l.segs = l.segs[1:]
		for i := 0; i < len(l.order); {
			key := l.order[i]
			if e, ok := l.byKey[key]; ok && e.seg == seg {
				delete(l.byKey, key)
				l.order = append(l.order[:i], l.order[i+1:]...)
				continue
			}
			i++
		}
		l.bytes -= seg.size
		seg.f.Close()
		os.Remove(filepath.Join(l.dir, seg.name))
		l.gcSegs.Add(1)
		dropped = true
	}
	if dropped {
		return l.syncLocked() // the index must forget dropped segments promptly
	}
	return nil
}

// syncLocked fsyncs the active segment and atomically replaces the index
// so it never names bytes the segments have not durably absorbed. Callers
// hold mu.
func (l *Lake) syncLocked() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("lake: %w", err)
		}
	}
	idx := indexFile{Kind: indexKind, Version: indexVersion}
	for i, s := range l.segs {
		idx.Segments = append(idx.Segments, indexSeg{
			Name:   s.name,
			Bytes:  s.size,
			Sealed: i < len(l.segs)-1,
		})
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	if err := journal.WriteAtomic(filepath.Join(l.dir, indexName), append(raw, '\n')); err != nil {
		return fmt.Errorf("lake: %w", err)
	}
	l.pending = 0
	l.lastSync = time.Now()
	return nil
}

// Get returns the stored payload for a content key. Every read re-verifies
// the payload's SHA-256 against the stored hash; a mismatch quarantines
// the entry — it is dropped and counted, never served — so a torn or
// bit-rotted write can cost a cache miss but never a corrupt "hit".
func (l *Lake) Get(key string) ([]byte, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.RLock()
	e, ok := l.byKey[key]
	if !ok || l.closed {
		l.mu.RUnlock()
		l.misses.Add(1)
		return nil, false
	}
	buf := make([]byte, e.meta.Len)
	_, err := e.seg.f.ReadAt(buf, e.off)
	l.mu.RUnlock()
	if err == nil {
		sum := sha256.Sum256(buf)
		if hex.EncodeToString(sum[:]) == e.meta.ResultHash {
			l.hits.Add(1)
			return buf, true
		}
	}
	l.quarantine(key, e)
	return nil, false
}

// Fetch returns the verified payload for a Scan-returned meta, by key.
func (l *Lake) Fetch(m Meta) ([]byte, bool) {
	return l.Get(m.Key)
}

// quarantine drops a failed entry and counts it.
func (l *Lake) quarantine(key string, e *entry) {
	l.corrupt.Add(1)
	l.mu.Lock()
	if cur, ok := l.byKey[key]; ok && cur == e {
		delete(l.byKey, key)
		e.seg.keys--
		for i, k := range l.order {
			if k == key {
				l.order = append(l.order[:i], l.order[i+1:]...)
				break
			}
		}
	}
	l.mu.Unlock()
}

// Has reports whether a key is present (without verifying its payload).
func (l *Lake) Has(key string) bool {
	if l == nil {
		return false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.byKey[key]
	return ok
}

// Scan calls fn with every live entry's meta in insertion (oldest-first)
// order; returning false stops the scan. The metas are copies — fn may
// retain them.
func (l *Lake) Scan(fn func(Meta) bool) {
	l.mu.RLock()
	keys := append([]string(nil), l.order...)
	metas := make([]Meta, 0, len(keys))
	for _, k := range keys {
		if e, ok := l.byKey[k]; ok {
			metas = append(metas, e.meta)
		}
	}
	l.mu.RUnlock()
	for _, m := range metas {
		if !fn(m) {
			return
		}
	}
}

// Len returns the number of live entries.
func (l *Lake) Len() int {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byKey)
}

// Stats returns a counter snapshot.
func (l *Lake) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.RLock()
	s := Stats{
		Entries:  len(l.byKey),
		Bytes:    l.bytes,
		Segments: len(l.segs),
	}
	l.mu.RUnlock()
	s.Hits = l.hits.Load()
	s.Misses = l.misses.Load()
	s.Corrupt = l.corrupt.Load()
	s.Puts = l.puts.Load()
	s.GCSegs = l.gcSegs.Load()
	return s
}

// Close flushes pending appends and releases every file handle. A closed
// lake answers every Get with a miss.
func (l *Lake) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.active != nil && l.pending > 0 {
		err = l.syncLocked()
	}
	l.closeFiles()
	l.closed = true
	return err
}

// closeFiles releases all handles. Callers hold mu (or are inside Open's
// failure path before the lake escapes).
func (l *Lake) closeFiles() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	for _, s := range l.segs {
		s.f.Close()
	}
}

// segNumber parses the sequence number of a segment file name
// (seg-<digits>.lake). Any other name is an error: it is not a segment
// this lake wrote.
func segNumber(name string) (int, error) {
	digits, ok := strings.CutPrefix(name, segPrefix)
	if ok {
		digits, ok = strings.CutSuffix(digits, segSuffix)
	}
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || n < 0 || strings.HasPrefix(digits, "+") {
		return 0, fmt.Errorf("lake: malformed segment name %q", name)
	}
	return n, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
