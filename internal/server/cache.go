package server

import (
	"container/list"
	"encoding/json"
	"sync"

	"involution/internal/circuit"
)

// lru is the server's one bounded memo: a mutex-guarded LRU map whose
// bound is the summed cost of its entries, not their count. Each memo
// picks its own cost — payload bytes for the result cache, netlist bytes
// for the compiled-netlist memo, 1 for the request-body memo — so one
// huge entry cannot blow memory while tiny ones under-fill an entry
// count. An entry costing more than the whole bound is refused rather
// than wiping the memo for one uncacheable giant.
type lru[V any] struct {
	mu    sync.Mutex
	max   int64 // bound on the summed entry cost; ≤ 0 disables the memo
	cost  int64 // summed cost of the held entries
	order *list.List
	byKey map[string]*list.Element // value: *lruEntry[V]; front of order = most recently used
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](max int64) *lru[V] {
	return &lru[V]{max: max, order: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the value under key, marking it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key (replacing any previous value), then evicts
// least recently used entries until the cost bound holds again.
func (c *lru[V]) put(key string, val V, cost int64) {
	if c.max <= 0 || cost > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
		c.cost += cost
	}
	for c.cost > c.max {
		e := c.order.Remove(c.order.Back()).(*lruEntry[V])
		delete(c.byKey, e.key)
		c.cost -= e.cost
	}
}

// len returns the number of held entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size returns the summed cost of the held entries.
func (c *lru[V]) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// cachedResult is one result-cache entry, keyed by the canonical request
// hash. raw is the exact compact bytes served to the first client, so a
// cache hit is byte-identical to the original result by construction;
// hash is the SHA-256 of raw (api.ResultHashOfCompact, equal to
// api.ResultHashOf on compact bytes), taken once when the result is
// stored or promoted from the lake, so the hit path never hashes again.
// Its cost is len(raw).
type cachedResult struct {
	raw  json.RawMessage
	hash string
}

// canonMemoMax bounds the request-body memo. Entries are three small
// strings, so even the full table is a few hundred KiB.
const canonMemoMax = 4096

// memoEntry is one request-body memo entry: the fast path of the submit
// handler maps the SHA-256 of a raw request body to the canonical hash
// (and circuit name) that compiling that body produced, so a repeated
// identical submit skips JSON decode, netlist parse, circuit build, and
// canonical re-marshal entirely — the cache hit costs one hash of the
// bytes on the wire. Entries are only inserted after a successful compile,
// so a memoized body is by construction a valid request whose canonical
// form is hash. Each costs 1: the bound is canonMemoMax entries.
type memoEntry struct {
	hash string // canonical request hash (the result-cache key)
	name string // circuit name, for the job record
}

// netlistMemoBytes bounds the compiled-netlist memo by the summed bytes of
// its keys (submitted and canonical netlist texts). A built circuit holds
// about 7× its text (2 KB for the 280-byte Fig. 5 SPF netlist), so a full
// memo holds ~8 MB; a campaign needs one entry per distinct netlist.
const netlistMemoBytes = 1 << 20

// compiledNetlist is one netlist's parse → build → format result, shared
// by every job that submits the netlist. The circuit is read-only under
// sim.Run — channel instances and adversary state come from
// Model.NewInstance on every run — so concurrent jobs can share it.
type compiledNetlist struct {
	circuit *circuit.Circuit
	canon   string // canonical netlist text (netlist.Document.String)
}
