package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("events_total", "") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("queue_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Gauge("events_total", "")
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add must panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rounds", "delta rounds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1, 2, 3, 9} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); got != 16.5 {
		t.Fatalf("sum = %g, want 16.5", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindHistogram {
		t.Fatalf("snapshot = %+v", snap)
	}
	want := []int64{3, 4, 5, 6} // cumulative: ≤1, ≤2, ≤4, +Inf
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(snap[0].Buckets[3].Upper, 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "").Inc()
	r.Gauge("a_depth", "").Set(1)
	r.Histogram("m_hist", "", []float64{1})
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := r.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if bufs[0].String() != bufs[1].String() {
		t.Fatal("snapshots of identical state differ")
	}
	var snap []Sample
	if err := json.Unmarshal(bufs[0].Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap[0].Name != "a_depth" || snap[1].Name != "m_hist" || snap[2].Name != "z_total" {
		t.Fatalf("snapshot not name-sorted: %+v", snap)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_delivered_total", "delivered events").Add(7)
	h := r.Histogram("sim_delta_rounds", "rounds per delta cycle", []float64{1, 2})
	h.Observe(1)
	h.Observe(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP sim_delta_rounds rounds per delta cycle",
		"# TYPE sim_delta_rounds histogram",
		`sim_delta_rounds_bucket{le="1"} 1`,
		`sim_delta_rounds_bucket{le="2"} 1`,
		`sim_delta_rounds_bucket{le="+Inf"} 2`,
		"sim_delta_rounds_sum 4",
		"sim_delta_rounds_count 2",
		"# TYPE sim_events_delivered_total counter",
		"sim_events_delivered_total 7",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Gauge("up", "").Set(1)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up 1\n") {
		t.Fatalf("body: %s", rec.Body.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	h := r.Histogram("h", "", []float64{10, 20})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 30))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter %d, hist %d; want 8000", c.Value(), h.Count())
	}
}

// TestSanitizeMetricName pins the one name-to-suffix mapping that simd's
// per-tenant gauges and the coordinator's per-node gauges share: ASCII
// names map as they always have, and each non-ASCII rune becomes a single
// '_' however many bytes encode it.
func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"anonymous":      "anonymous",
		"dynamic":        "dynamic",
		"tenant-a":       "tenant_a",
		"node_b":         "node_b",
		"127.0.0.1:8080": "127_0_0_1_8080",
		"http://h:1/":    "http___h_1_",
		"":               "",
		"tenant-é":       "tenant__",
		"日本":             "__",
		"a\xffb":         "a_b",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
