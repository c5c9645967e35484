// Package admission is the overload-protection layer between the simd
// wire and the simulator kernel: per-tenant identity (API keys) with
// token-bucket request-rate limits and simulated-event budgets, and
// per-tenant usage counters.
//
// The hot path is deliberately lock-free: tenant lookup is an immutable
// map read (configured tenants) or a sync.Map read (dynamic tenants),
// each limit check is one GCRA compare-and-swap, and usage accounting is
// one atomic add per counter, read by the metrics scrape. Admission
// therefore never takes a hot lock per request.
//
// The contract the server builds on:
//
//   - quota refusals (rate, budget) are the tenant's fault → HTTP 429
//     with Retry-After, a signal to slow down, not to fail over;
//   - capacity refusals (queue full, deadline infeasible) are the node's
//     state → HTTP 503, a signal to back off or try another node.
package admission

import (
	"sync"
	"sync/atomic"
	"time"
)

// Refusal reasons carried by Decision and the simd_shed_* counter family.
const (
	// ReasonRate : the tenant exceeded its request-rate bucket (429).
	ReasonRate = "rate"
	// ReasonBudget : the tenant exceeded its simulated-event budget (429).
	ReasonBudget = "budget"
)

// Limits bounds one tenant. The zero value is unlimited.
type Limits struct {
	// RPS is the sustained request rate (requests/second; 0: unlimited).
	RPS float64 `json:"rps,omitempty"`
	// Burst is the request bucket capacity (default: max(1, ceil(RPS))).
	Burst int `json:"burst,omitempty"`
	// EventsPerSec is the sustained simulated-event budget — the CPU
	// proxy: every submit is charged its max_events cost up front
	// (0: unlimited).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// EventBurst is the event bucket capacity (default: 4·EventsPerSec).
	EventBurst int64 `json:"event_burst,omitempty"`
}

func (l Limits) withDefaults() Limits {
	if l.RPS > 0 && l.Burst <= 0 {
		l.Burst = int(l.RPS) + 1
	}
	if l.EventsPerSec > 0 && l.EventBurst <= 0 {
		l.EventBurst = int64(4 * l.EventsPerSec)
	}
	return l
}

// TenantConfig names one configured tenant and its limits.
type TenantConfig struct {
	// Key is the API key presented in the X-Api-Key header (or as an
	// Authorization bearer token).
	Key string `json:"key"`
	// Name labels the tenant in metrics and logs (default: the key).
	Name string `json:"name,omitempty"`
	// Limits bound the tenant; zero limits make the key a named but
	// unlimited tenant.
	Limits
}

// Config parametrizes a Controller.
type Config struct {
	// Tenants are the configured API keys.
	Tenants []TenantConfig `json:"tenants,omitempty"`
	// Default bounds every key not in Tenants — including the anonymous
	// (empty) key. The zero value admits everything, which turns the
	// controller into pure accounting.
	Default Limits `json:"default,omitempty"`
	// MaxDynamic bounds the number of unconfigured keys tracked at once
	// (default 4096). When a churny flood overflows the bound the whole
	// dynamic set is dropped and rebuilt on demand — O(1) amortized, no
	// per-request LRU maintenance; strangers briefly restart with fresh
	// buckets, configured tenants are never evicted.
	MaxDynamic int `json:"max_dynamic,omitempty"`
}

// Decision is the outcome of one admission check.
type Decision struct {
	// OK admits the request.
	OK bool
	// Tenant is the display name of the tenant that was charged.
	Tenant string
	// Reason is ReasonRate or ReasonBudget when the request was refused.
	Reason string
	// RetryAfter is the wait after which the identical request would
	// conform (refusals only).
	RetryAfter time.Duration
}

// Usage is one tenant's usage counters, as Flush reports them.
type Usage struct {
	Admitted   int64 // requests admitted
	ShedRate   int64 // requests refused by the rate bucket
	ShedBudget int64 // requests refused by the event budget
	Events     int64 // simulated-event cost charged
}

// counters is live usage: each update is one atomic add.
type counters struct {
	admitted, shedRate, shedBudget, eventsUsed atomic.Int64
}

func (c *counters) usage() Usage {
	return Usage{
		Admitted:   c.admitted.Load(),
		ShedRate:   c.shedRate.Load(),
		ShedBudget: c.shedBudget.Load(),
		Events:     c.eventsUsed.Load(),
	}
}

func (c *counters) add(u Usage) {
	c.admitted.Add(u.Admitted)
	c.shedRate.Add(u.ShedRate)
	c.shedBudget.Add(u.ShedBudget)
	c.eventsUsed.Add(u.Events)
}

// tenant is one key's live state.
type tenant struct {
	name   string
	reqs   *gcra
	events *gcra
	counters
}

func newTenant(name string, l Limits) *tenant {
	l = l.withDefaults()
	return &tenant{
		name:   name,
		reqs:   newGCRA(l.RPS, float64(l.Burst)),
		events: newGCRA(l.EventsPerSec, float64(l.EventBurst)),
	}
}

// Controller is the multi-tenant admission authority. The nil Controller
// is fully permissive — every check conforms — so call sites need no
// conditionals.
type Controller struct {
	cfg    Config
	static map[string]*tenant // immutable after New: lock-free lookups
	order  []*tenant          // static tenants in configuration order
	anon   *tenant            // the empty key

	dynamic  sync.Map // key → *tenant, unconfigured keys
	dynCount atomic.Int64
	// evicted preserves the usage of mass-evicted dynamic tenants so the
	// aggregate "dynamic" row stays monotone across evictions.
	evicted counters
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	if cfg.MaxDynamic <= 0 {
		cfg.MaxDynamic = 4096
	}
	c := &Controller{cfg: cfg, static: make(map[string]*tenant, len(cfg.Tenants))}
	c.anon = newTenant("anonymous", cfg.Default)
	for _, tc := range cfg.Tenants {
		name := tc.Name
		if name == "" {
			name = tc.Key
		}
		if tc.Key == "" {
			// An empty key configures the anonymous tenant explicitly.
			if name == "" {
				name = "anonymous"
			}
			c.anon = newTenant(name, tc.Limits)
			continue
		}
		if _, dup := c.static[tc.Key]; dup {
			continue // first configuration of a key wins
		}
		t := newTenant(name, tc.Limits)
		c.static[tc.Key] = t
		c.order = append(c.order, t)
	}
	return c
}

// lookup resolves a key to its tenant state, creating dynamic state for
// unconfigured non-empty keys on first sight.
func (c *Controller) lookup(key string) *tenant {
	if key == "" {
		return c.anon
	}
	if t, ok := c.static[key]; ok {
		return t
	}
	if v, ok := c.dynamic.Load(key); ok {
		return v.(*tenant)
	}
	// Cold path: first sight of this key. Bound the dynamic set by mass
	// eviction — churny floods must not grow memory without limit, and a
	// per-request LRU would be exactly the hot lock this package exists
	// to avoid.
	if c.dynCount.Load() >= int64(c.cfg.MaxDynamic) {
		c.dynamic.Range(func(k, v any) bool {
			c.evicted.add(v.(*tenant).usage())
			c.dynamic.Delete(k)
			return true
		})
		c.dynCount.Store(0)
	}
	t := newTenant(key, c.cfg.Default)
	if actual, loaded := c.dynamic.LoadOrStore(key, t); loaded {
		return actual.(*tenant)
	}
	c.dynCount.Add(1)
	return t
}

// AdmitRequest charges one request token against the key's rate bucket.
func (c *Controller) AdmitRequest(key string, now time.Time) Decision {
	if c == nil {
		return Decision{OK: true}
	}
	t := c.lookup(key)
	ok, wait := t.reqs.allow(now, 1)
	if !ok {
		t.shedRate.Add(1)
		return Decision{Tenant: t.name, Reason: ReasonRate, RetryAfter: wait}
	}
	t.admitted.Add(1)
	return Decision{OK: true, Tenant: t.name}
}

// ChargeEvents charges a simulated-event cost against the key's event
// budget. Cost is the submit's max_events bound (or the server's default
// estimate) — charged up front so a tenant cannot buy unbounded CPU with
// a conformant request rate.
func (c *Controller) ChargeEvents(key string, cost int64, now time.Time) Decision {
	if c == nil {
		return Decision{OK: true}
	}
	t := c.lookup(key)
	ok, wait := t.events.allow(now, cost)
	if !ok {
		t.shedBudget.Add(1)
		return Decision{Tenant: t.name, Reason: ReasonBudget, RetryAfter: wait}
	}
	t.eventsUsed.Add(cost)
	return Decision{OK: true, Tenant: t.name}
}

// Flush reports every tenant's usage totals, configured tenants first in
// configuration order, then "anonymous". Dynamic tenants are aggregated
// into one "dynamic" row — per-stranger series would be an unbounded
// metric surface. The metrics scrape path calls it.
func (c *Controller) Flush(fn func(name string, u Usage)) {
	if c == nil || fn == nil {
		return
	}
	for _, t := range c.order {
		fn(t.name, t.usage())
	}
	fn(c.anon.name, c.anon.usage())
	var dyn counters
	dyn.add(c.evicted.usage())
	c.dynamic.Range(func(_, v any) bool {
		dyn.add(v.(*tenant).usage())
		return true
	})
	fn("dynamic", dyn.usage())
}
