package lake

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func testPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"status":"completed","events":%d,"outputs":{"o":"0 r@1 f@2"}}`, i))
}

func mustOpen(t *testing.T, opts Options) *Lake {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opts, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestPutGetReopen stores entries, closes, reopens, and expects every
// payload back byte-identical — the persistence contract restarts lean on.
func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Put(testKey(i), "chain", "", testPayload(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, ok := l.Get(testKey(i))
		if !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("get %d before close: ok=%v got=%s", i, ok, got)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := mustOpen(t, Options{Dir: dir})
	if r.Len() != n {
		t.Fatalf("reopened lake has %d entries, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := r.Get(testKey(i))
		if !ok {
			t.Fatalf("get %d after reopen: miss", i)
		}
		if !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("get %d after reopen: %s, want %s", i, got, testPayload(i))
		}
	}
	if s := r.Stats(); s.Hits != int64(n) || s.Corrupt != 0 {
		t.Fatalf("stats after reopen: %+v", s)
	}
}

// TestReopenWithoutClose abandons a lake mid-batch (no Close, so the last
// coalesced fsync never ran — the in-process shape of a SIGKILL) and
// expects the reopened lake to recover the fully written tail entries.
func TestReopenWithoutClose(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	const n = 5 // below journal.BatchRows: nothing was fsync'd or indexed
	for i := 0; i < n; i++ {
		if err := l.Put(testKey(i), "chain", "", testPayload(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// No Close: simply reopen over the same directory (the OS buffer holds
	// the written bytes; only a machine crash could lose them, and then the
	// index discipline bounds the damage to a miss).
	r := mustOpen(t, Options{Dir: dir})
	for i := 0; i < n; i++ {
		got, ok := r.Get(testKey(i))
		if !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("get %d after crashy reopen: ok=%v got=%s", i, ok, got)
		}
	}
}

// TestTornTailTruncated appends garbage (a torn final write) to the active
// segment and expects reopen to keep every whole entry, drop the tail, and
// keep working for further puts.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := l.Put(testKey(i), "chain", "", testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A half-written header line: no trailing newline, not valid JSON.
	if _, err := f.WriteString(`{"key":"deadbeef","hash":"tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, Options{Dir: dir})
	if r.Len() != 3 {
		t.Fatalf("reopened lake has %d entries, want 3", r.Len())
	}
	for i := 0; i < 3; i++ {
		if got, ok := r.Get(testKey(i)); !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("entry %d lost to torn tail: ok=%v", i, ok)
		}
	}
	if s := r.Stats(); s.Corrupt == 0 {
		t.Fatalf("torn tail not counted: %+v", s)
	}
	if err := r.Put(testKey(99), "chain", "", testPayload(99)); err != nil {
		t.Fatalf("put after torn-tail recovery: %v", err)
	}
	if got, ok := r.Get(testKey(99)); !ok || !bytes.Equal(got, testPayload(99)) {
		t.Fatal("post-recovery put not readable")
	}
}

// TestCorruptPayloadQuarantined flips a payload byte on disk and expects
// the read to fail verification, count the corruption, and quarantine the
// entry — a miss forever after, never a wrong answer.
func TestCorruptPayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Put(testKey(0), "chain", "", testPayload(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(testKey(1), "chain", "", testPayload(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first payload in place: find its span after the first
	// header line and flip a byte inside the JSON body.
	nl := bytes.IndexByte(raw, '\n')
	raw[nl+10] ^= 0x20
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir})
	if _, ok := r.Get(testKey(0)); ok {
		t.Fatal("corrupted payload was served")
	}
	if s := r.Stats(); s.Corrupt == 0 {
		t.Fatalf("corruption not counted: %+v", s)
	}
	if _, ok := r.Get(testKey(0)); ok {
		t.Fatal("quarantined entry served on second read")
	}
	if r.Has(testKey(0)) {
		t.Fatal("quarantined entry still indexed")
	}
	// The neighbor is untouched and must still verify.
	if got, ok := r.Get(testKey(1)); !ok || !bytes.Equal(got, testPayload(1)) {
		t.Fatal("healthy neighbor entry lost")
	}
}

// TestSegmentGCBound fills a small-bounded lake far past its MaxBytes and
// asserts the byte bound holds, whole oldest segments were dropped, and the
// newest entries survive.
func TestSegmentGCBound(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 16 << 10
	l := mustOpen(t, Options{Dir: dir, MaxBytes: maxBytes, SegmentBytes: 2 << 10})
	const n = 400
	for i := 0; i < n; i++ {
		if err := l.Put(testKey(i), "chain", "", testPayload(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if s := l.Stats(); s.Bytes > maxBytes {
			t.Fatalf("after put %d: %d bytes exceeds bound %d", i, s.Bytes, maxBytes)
		}
	}
	s := l.Stats()
	if s.GCSegs == 0 {
		t.Fatalf("no segments collected: %+v", s)
	}
	if s.Entries == 0 || s.Entries == n {
		t.Fatalf("entries = %d, want 0 < entries < %d", s.Entries, n)
	}
	if _, ok := l.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived GC that dropped segments")
	}
	if got, ok := l.Get(testKey(n - 1)); !ok || !bytes.Equal(got, testPayload(n-1)) {
		t.Fatal("newest entry did not survive GC")
	}
	// On-disk footprint matches the accounting: dropped segments are gone.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != s.Segments {
		t.Fatalf("%d segment files on disk, stats say %d", len(segs), s.Segments)
	}
	// And survives a reopen under the same bound.
	l.Close()
	r := mustOpen(t, Options{Dir: dir, MaxBytes: maxBytes, SegmentBytes: 2 << 10})
	if r.Len() != s.Entries {
		t.Fatalf("reopen after GC: %d entries, want %d", r.Len(), s.Entries)
	}
}

// TestOversizedPayloadRefused checks one payload larger than the whole
// bound is refused rather than wiping the lake.
func TestOversizedPayloadRefused(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 4 << 10, SegmentBytes: 1 << 10})
	if err := l.Put(testKey(0), "chain", "", testPayload(0)); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte("x"), 8<<10)
	if err := l.Put(testKey(1), "chain", "", huge); err != nil {
		t.Fatalf("oversized put errored (want silent refusal): %v", err)
	}
	if l.Has(testKey(1)) {
		t.Fatal("oversized payload was stored")
	}
	if !l.Has(testKey(0)) {
		t.Fatal("oversized put evicted existing entries")
	}
}

// TestConcurrentReadWrite races one writer against many readers and
// scanners — the server's exact concurrency shape (pool workers write
// through, submit handlers read). Run with -race.
func TestConcurrentReadWrite(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 64 << 10, SegmentBytes: 4 << 10})
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := l.Put(testKey(i), "chain", "", testPayload(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				key := testKey((i*7 + g) % n)
				if got, ok := l.Get(key); ok {
					var want []byte
					for j := 0; j < n; j++ {
						if testKey(j) == key {
							want = testPayload(j)
							break
						}
					}
					if !bytes.Equal(got, want) {
						t.Errorf("reader %d: wrong bytes for %s", g, key)
						return
					}
				}
				if i%50 == 0 {
					l.Scan(func(m Meta) bool { return m.Key != "" })
					l.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := l.Stats(); s.Corrupt != 0 {
		t.Fatalf("concurrent run produced corruption counts: %+v", s)
	}
}

// TestReadOnlyOpen opens a populated lake read-only, gets and scans, and
// expects Put to refuse.
func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 4; i++ {
		if err := l.Put(testKey(i), "spf", "", testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	r := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if got, ok := r.Get(testKey(2)); !ok || !bytes.Equal(got, testPayload(2)) {
		t.Fatal("read-only get failed")
	}
	var seen []string
	r.Scan(func(m Meta) bool {
		if m.Circuit != "spf" {
			t.Fatalf("scan meta circuit = %q", m.Circuit)
		}
		seen = append(seen, m.Key)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("scan saw %d entries, want 4", len(seen))
	}
	if err := r.Put(testKey(9), "spf", "", testPayload(9)); err != ErrReadOnly {
		t.Fatalf("read-only put: %v, want ErrReadOnly", err)
	}
}

// TestReadOnlyMissingDir opens a nonexistent directory read-only and
// expects an empty lake, not an error — `simctl query` against a fresh
// path should report nothing, not fail.
func TestReadOnlyMissingDir(t *testing.T) {
	r := mustOpen(t, Options{Dir: filepath.Join(t.TempDir(), "nope"), ReadOnly: true})
	if r.Len() != 0 {
		t.Fatal("phantom entries")
	}
	if _, ok := r.Get(testKey(0)); ok {
		t.Fatal("phantom hit")
	}
}

// TestDedupPut re-puts an existing key and expects a single stored entry.
func TestDedupPut(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	for i := 0; i < 3; i++ {
		if err := l.Put(testKey(0), "chain", "", testPayload(0)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d after duplicate puts, want 1", l.Len())
	}
	if s := l.Stats(); s.Puts != 1 {
		t.Fatalf("puts = %d, want 1", s.Puts)
	}
}

// TestScanOrderStable checks Scan yields insertion order — what makes
// `simctl query` output deterministic.
func TestScanOrderStable(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	var want []string
	for i := 0; i < 10; i++ {
		k := testKey(i)
		want = append(want, k)
		if err := l.Put(k, "chain", "", testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	l.Scan(func(m Meta) bool { got = append(got, m.Key); return true })
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("scan order:\n got %v\nwant %v", got, want)
	}
}

// TestSegNumber pins the segment-name grammar: seg-<digits>.lake and
// nothing else.
func TestSegNumber(t *testing.T) {
	for name, want := range map[string]int{"seg-00000001.lake": 1, "seg-00000042.lake": 42, "seg-7.lake": 7} {
		if got, err := segNumber(name); err != nil || got != want {
			t.Errorf("segNumber(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	for _, name := range []string{"seg-.lake", "seg-7x.lake", "seg--1.lake", "seg-+1.lake", "seg-1.lake.bak", "seg-99999999999999999999.lake", "lake.idx"} {
		if got, err := segNumber(name); err == nil {
			t.Errorf("segNumber(%q) = %d, want an error", name, got)
		}
	}
}

// TestMalformedSegmentNameQuarantined plants a copy of a real segment
// under a malformed seg-*.lake name: reopen must quarantine it (counted
// corrupt, never read), keep every real entry, and keep numbering new
// segments after the real ones.
func TestMalformedSegmentNameQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	if err := l.Put(testKey(0), "chain", "", testPayload(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seg-00000001.lake"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-9x.lake"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir})
	if s := r.Stats(); s.Corrupt != 1 {
		t.Fatalf("stats after reopen: %+v, want one quarantined segment", s)
	}
	if got, ok := r.Get(testKey(0)); !ok || !bytes.Equal(got, testPayload(0)) {
		t.Fatalf("real entry lost: ok=%v got=%s", ok, got)
	}
	if r.nextSeg != 2 {
		t.Fatalf("next segment number %d, want 2", r.nextSeg)
	}
}
