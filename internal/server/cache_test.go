package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestCacheConcurrentEvictionAtCapacity hammers a tiny byte-bounded cache
// with distinct hashes from many goroutines — the pattern a sharded sweep
// produces when every scenario is a cache miss — interleaved with gets,
// and checks the LRU invariants hold: the byte bound is never exceeded,
// map, list and byte accounting stay in sync, and whatever survives is
// retrievable with the bytes that went in. Run under -race this also
// proves put/get need no external locking.
func TestCacheConcurrentEvictionAtCapacity(t *testing.T) {
	// Fixed-width payloads so the byte bound is an exact entry count.
	val := func(g, i int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"g":%03d,"i":%03d}`, g, i))
	}
	const (
		capacity   = 8
		goroutines = 16
		perG       = 200
	)
	entryBytes := int64(len(val(0, 0)))
	c := newLRU[cachedResult](capacity * entryBytes)
	put := func(key string, raw json.RawMessage, hash string) {
		c.put(key, cachedResult{raw: raw, hash: hash}, int64(len(raw)))
	}

	// Pre-fill to capacity so every concurrent put below evicts.
	for i := 0; i < capacity; i++ {
		put(testHash("seed", i), val(999, i), "")
	}
	if got := c.len(); got != capacity {
		t.Fatalf("pre-fill len = %d, want %d", got, capacity)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := testHash(fmt.Sprintf("g%d", g), i)
				put(key, val(g, i), "rh")
				// Immediately reading back may miss (another goroutine can
				// evict it), but a hit must return the exact bytes.
				if got, ok := c.get(key); ok {
					if string(got.raw) != string(val(g, i)) {
						t.Errorf("get(%s) = %s, want %s", key, got.raw, val(g, i))
					}
					if got.hash != "rh" {
						t.Errorf("get(%s) hash = %q, want %q", key, got.hash, "rh")
					}
				}
				// Touch an unrelated seed key to churn the LRU order.
				c.get(testHash("seed", i%capacity))
			}
		}(g)
	}
	wg.Wait()

	if got := c.size(); got > capacity*entryBytes {
		t.Fatalf("bytes after churn = %d, exceeds bound %d", got, capacity*entryBytes)
	}
	if got := c.len(); got != capacity {
		t.Fatalf("len after churn = %d, want exactly %d (cache was at capacity throughout)", got, capacity)
	}
	c.mu.Lock()
	if len(c.byKey) != c.order.Len() {
		t.Fatalf("map/list out of sync: %d keys, %d list entries", len(c.byKey), c.order.Len())
	}
	var sum int64
	for key, el := range c.byKey {
		e := el.Value.(*lruEntry[cachedResult])
		if e.key != key {
			t.Fatalf("entry under key %s carries key %s", key, e.key)
		}
		sum += int64(len(e.val.raw))
	}
	if sum != c.cost {
		t.Fatalf("byte accounting drifted: entries sum to %d, counter says %d", sum, c.cost)
	}
	c.mu.Unlock()

	// Survivors must still serve their exact bytes.
	seen := 0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			key := testHash(fmt.Sprintf("g%d", g), i)
			if got, ok := c.get(key); ok {
				seen++
				want := string(val(g, i))
				if string(got.raw) != want {
					t.Fatalf("survivor %s = %s, want %s", key, got.raw, want)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no churned entries survived; eviction should keep the most recent")
	}
}

// TestCacheByteBoundMixedSizes checks the property the entry-count bound
// lacked: a few huge payloads evict many small ones, an oversized payload
// is refused outright, and replacement adjusts the accounting.
func TestCacheByteBoundMixedSizes(t *testing.T) {
	c := newLRU[cachedResult](1 << 10)
	put := func(key string, raw json.RawMessage) {
		c.put(key, cachedResult{raw: raw}, int64(len(raw)))
	}
	small := json.RawMessage(`{"s":1}`)
	for i := 0; i < 64; i++ {
		put(testHash("small", i), small)
	}
	if got := c.size(); got != 64*int64(len(small)) {
		t.Fatalf("size = %d, want %d", got, 64*int64(len(small)))
	}
	big := json.RawMessage(fmt.Sprintf(`{"big":%q}`, strings.Repeat("x", 400)))
	put(testHash("big", 0), big)
	put(testHash("big", 1), big)
	if got := c.size(); got > 1<<10 {
		t.Fatalf("size = %d exceeds bound after big puts", got)
	}
	if _, ok := c.get(testHash("big", 1)); !ok {
		t.Fatal("most recent big entry evicted")
	}
	if _, ok := c.get(testHash("small", 0)); ok {
		t.Fatal("oldest small entry survived big puts that exceeded the bound")
	}

	// Oversized: refused, nothing else disturbed.
	before := c.len()
	put(testHash("huge", 0), json.RawMessage(make([]byte, 2<<10)))
	if c.len() != before {
		t.Fatal("oversized put changed the cache")
	}
	if _, ok := c.get(testHash("huge", 0)); ok {
		t.Fatal("oversized payload cached")
	}

	// Replacing a key with a different-size payload keeps accounting exact.
	put(testHash("big", 1), small)
	c.mu.Lock()
	var sum int64
	for _, el := range c.byKey {
		sum += int64(len(el.Value.(*lruEntry[cachedResult]).val.raw))
	}
	if sum != c.cost {
		t.Fatalf("accounting after replace: sum %d, counter %d", sum, c.cost)
	}
	c.mu.Unlock()
}

// TestCanonMemo checks the submit fast-path memo: bounded, LRU, and a
// miss after eviction.
func TestCanonMemo(t *testing.T) {
	m := newLRU[memoEntry](2)
	m.put("a", memoEntry{hash: "hash-a", name: "chain"}, 1)
	m.put("b", memoEntry{hash: "hash-b", name: "spf"}, 1)
	if e, ok := m.get("a"); !ok || e.hash != "hash-a" || e.name != "chain" {
		t.Fatalf("get a = %+v %v", e, ok)
	}
	m.put("c", memoEntry{hash: "hash-c", name: "ring"}, 1) // evicts b (a was just touched)
	if _, ok := m.get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	if _, ok := m.get("a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if _, ok := m.get("c"); !ok {
		t.Fatal("c missing")
	}
}

// testHash derives a distinct hash-shaped key, mimicking the canonical
// request hashes real submits produce.
func testHash(prefix string, i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s-%d", prefix, i)))
	return hex.EncodeToString(sum[:])
}
