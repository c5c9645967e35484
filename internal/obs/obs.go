// Package obs is a stdlib-only metrics registry for the simulator and its
// tools: counters, gauges and fixed-bucket histograms with deterministic
// snapshot ordering, an expvar-compatible publish path, and Prometheus-text
// and JSON exposition writers.
//
// The registry is safe for concurrent use; individual metric updates are
// lock-free (atomics). Snapshots are taken under a read lock and always
// enumerate metrics in sorted name order, so two snapshots of the same
// registry state serialize byte-identically — a property the golden tests
// and the `-stats-json` CLI schema rely on.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
	KindInfo      Kind = "info"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters are monotone).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed cumulative-bucket layout
// (Prometheus-style: bucket i counts observations ≤ Buckets[i], with an
// implicit +Inf bucket at the end).
type Histogram struct {
	uppers []float64
	counts []atomic.Int64 // len(uppers)+1; last is the +Inf overflow
	count  atomic.Int64
	sumMu  sync.Mutex
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.sumMu.Lock()
	defer h.sumMu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution from the cumulative buckets, interpolating linearly within
// the bucket that crosses the target rank (the Prometheus
// histogram_quantile estimator). The lowest bucket interpolates from 0;
// a rank landing in the +Inf overflow bucket reports the highest finite
// bound — quantiles never invent values beyond the layout. With no
// observations Quantile returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.uppers {
		cum += h.counts[i].Load()
		if float64(cum) >= rank {
			upper := h.uppers[i]
			lower := 0.0
			if i > 0 {
				lower = h.uppers[i-1]
			}
			inBucket := h.counts[i].Load()
			if inBucket == 0 {
				return upper
			}
			below := float64(cum - inBucket)
			return lower + (upper-lower)*(rank-below)/float64(inBucket)
		}
	}
	return h.uppers[len(h.uppers)-1]
}

// SanitizeMetricName maps a free-form name (a tenant key, a peer address)
// to a legal metric-name suffix: every rune outside [a-zA-Z0-9_] becomes
// one '_', so ASCII names keep their length.
func SanitizeMetricName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// LinearBuckets returns n upper bounds start, start+width, … .
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, … (factor > 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DeltaRoundBuckets is the fixed layout used for delta-cycle round counts:
// 1, 2, 3, 4, 8, 16, 32 rounds (plus the implicit +Inf overflow).
var DeltaRoundBuckets = []float64{1, 2, 3, 4, 8, 16, 32}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	help    map[string]string
	kinds   map[string]Kind
	counter map[string]*Counter
	gauge   map[string]*Gauge
	hist    map[string]*Histogram
	info    map[string][]Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		help:    map[string]string{},
		kinds:   map[string]Kind{},
		counter: map[string]*Counter{},
		gauge:   map[string]*Gauge{},
		hist:    map[string]*Histogram{},
		info:    map[string][]Label{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Re-registering a name under a different kind panics.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, help, KindCounter)
	c, ok := r.counter[name]
	if !ok {
		c = &Counter{}
		r.counter[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, help, KindGauge)
	g, ok := r.gauge[name]
	if !ok {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given cumulative upper bounds on first use. Buckets must be strictly
// increasing and non-empty; they are fixed for the metric's lifetime.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, help, KindHistogram)
	h, ok := r.hist[name]
	if !ok {
		uppers := append([]float64(nil), buckets...)
		h = &Histogram{uppers: uppers, counts: make([]atomic.Int64, len(uppers)+1)}
		r.hist[name] = h
	}
	return h
}

// Label is one key/value pair of an info metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Info registers a constant informational metric: a labeled series with
// the fixed value 1, the Prometheus build_info idiom. Re-registering the
// same name replaces its labels (they describe the current process).
// Labels are emitted in the given order.
func (r *Registry) Info(name, help string, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, help, KindInfo)
	r.info[name] = append([]Label(nil), labels...)
}

func (r *Registry) claim(name, help string, k Kind) {
	if prev, ok := r.kinds[name]; ok && prev != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, prev))
	}
	r.kinds[name] = k
	if help != "" {
		r.help[name] = help
	}
}

// BucketCount is one cumulative histogram bucket in a snapshot. The
// overflow bucket has Upper = +Inf, serialized as the JSON string "+Inf"
// (numbers cannot encode infinities).
type BucketCount struct {
	Upper float64 `json:"-"`
	Count int64   `json:"count"`
}

// MarshalJSON encodes the bucket with `le` as a number, or "+Inf" for the
// overflow bucket.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.Upper, 1) {
		le = strconv.FormatFloat(b.Upper, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both encodings of `le`.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    any   `json:"le"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	switch v := raw.Le.(type) {
	case float64:
		b.Upper = v
	case string:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("obs: bad bucket bound %q", v)
		}
		b.Upper = f
	default:
		return fmt.Errorf("obs: bad bucket bound %v", raw.Le)
	}
	return nil
}

// Sample is one metric in a snapshot.
type Sample struct {
	Name    string        `json:"name"`
	Kind    Kind          `json:"kind"`
	Help    string        `json:"help,omitempty"`
	Value   float64       `json:"value"`           // counter/gauge value; histogram sum; 1 for info
	Count   int64         `json:"count,omitempty"` // histogram observation count
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Quantiles are the estimated p50/p95/p99 of a histogram with at least
	// one observation (see Histogram.Quantile for the estimator).
	Quantiles *Quantiles `json:"quantiles,omitempty"`
	// Labels are the key/value pairs of an info metric.
	Labels []Label `json:"labels,omitempty"`
}

// Quantiles is the fixed latency-quantile summary attached to histogram
// samples.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Snapshot returns all metrics in sorted name order. Histogram bucket
// counts are cumulative (each includes all lower buckets), matching the
// Prometheus exposition convention.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.kinds))
	for n := range r.kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, n := range names {
		s := Sample{Name: n, Kind: r.kinds[n], Help: r.help[n]}
		switch s.Kind {
		case KindCounter:
			s.Value = float64(r.counter[n].Value())
		case KindGauge:
			s.Value = r.gauge[n].Value()
		case KindHistogram:
			h := r.hist[n]
			s.Value = h.Sum()
			s.Count = h.Count()
			cum := int64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				upper := math.Inf(1)
				if i < len(h.uppers) {
					upper = h.uppers[i]
				}
				s.Buckets = append(s.Buckets, BucketCount{Upper: upper, Count: cum})
			}
			if s.Count > 0 {
				s.Quantiles = &Quantiles{
					P50: h.Quantile(0.50),
					P95: h.Quantile(0.95),
					P99: h.Quantile(0.99),
				}
			}
		case KindInfo:
			s.Value = 1
			s.Labels = append([]Label(nil), r.info[n]...)
		}
		out = append(out, s)
	}
	return out
}

// PublishExpvar publishes the registry's snapshot under the given expvar
// name (e.g. "involution"). Publishing the same name twice panics (an
// expvar property), so call once per process.
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
