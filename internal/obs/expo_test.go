package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", LinearBuckets(10, 10, 10)) // 10,20,…,100
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	// Uniform 1..100: p50 ≈ 50, p95 ≈ 95, p99 ≈ 99.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 1}, {0.95, 95, 1}, {0.99, 99, 1}, {0, 0, 0.2}, {1, 100, 0},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
	// Overflow rank clamps to the highest finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 100 {
		t.Errorf("overflow quantile = %g, want 100 (highest finite bound)", got)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one", "", []float64{4})
	h.Observe(1)
	h.Observe(3)
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("single-bucket p50 = %g, want 2 (midpoint interpolation from 0)", got)
	}
}

func TestInfoMetricAllExpositions(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, "simd", "v1.2.3")

	// Prometheus: gauge-typed labeled constant-1 series.
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE build_info gauge",
		`build_info{service="simd",version="v1.2.3",go_version=`,
		`goos="`, `goarch="`, "} 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}

	// JSON: kind=info with labels.
	var jsonBuf bytes.Buffer
	if err := json.NewEncoder(&jsonBuf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(jsonBuf.Bytes(), &samples); err != nil {
		t.Fatal(err)
	}
	var info *Sample
	for i := range samples {
		if samples[i].Name == "build_info" {
			info = &samples[i]
		}
	}
	if info == nil {
		t.Fatal("build_info missing from JSON snapshot")
	}
	if info.Kind != KindInfo || info.Value != 1 {
		t.Fatalf("build_info sample = %+v, want kind=info value=1", info)
	}
	labels := map[string]string{}
	for _, l := range info.Labels {
		labels[l.Key] = l.Value
	}
	if labels["service"] != "simd" || labels["version"] != "v1.2.3" ||
		labels["go_version"] == "" || labels["goos"] == "" || labels["goarch"] == "" {
		t.Fatalf("build_info labels = %v", labels)
	}

	// Re-registering replaces labels rather than panicking or appending.
	RegisterBuildInfo(r, "simd", "v2.0.0")
	for _, s := range r.Snapshot() {
		if s.Name == "build_info" {
			if len(s.Labels) != 5 || s.Labels[1].Value != "v2.0.0" {
				t.Fatalf("re-registered build_info labels = %v", s.Labels)
			}
		}
	}
}

func TestHistogramQuantilesInExpositions(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("simd_job_latency_seconds", "job latency", ExpBuckets(0.001, 4, 8))
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"simd_job_latency_seconds_p50 ",
		"simd_job_latency_seconds_p95 ",
		"simd_job_latency_seconds_p99 ",
		"simd_job_latency_seconds_sum ",
		"simd_job_latency_seconds_count 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}

	var jsonBuf bytes.Buffer
	if err := json.NewEncoder(&jsonBuf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(jsonBuf.Bytes(), &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Quantiles == nil {
		t.Fatalf("JSON snapshot lacks quantiles: %+v", samples)
	}
	q := samples[0].Quantiles
	if !(q.P50 > 0 && q.P50 <= q.P95 && q.P95 <= q.P99) {
		t.Fatalf("quantiles not ordered: %+v", q)
	}

	// Empty histograms stay quantile-free in both expositions.
	r2 := NewRegistry()
	r2.Histogram("empty", "", []float64{1})
	var prom2 bytes.Buffer
	if err := r2.WritePrometheus(&prom2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom2.String(), "_p50") {
		t.Error("empty histogram emitted quantile series")
	}
}

func TestExpvarExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ex_jobs_total", "jobs").Add(3)
	h := r.Histogram("ex_latency", "lat", []float64{1, 2})
	h.Observe(1.5)
	RegisterBuildInfo(r, "test", "v0")
	r.PublishExpvar("expo_test_registry")

	v := expvar.Get("expo_test_registry")
	if v == nil {
		t.Fatal("expvar variable not published")
	}
	var samples []Sample
	if err := json.Unmarshal([]byte(v.String()), &samples); err != nil {
		t.Fatalf("expvar output not a sample list: %v", err)
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if byName["ex_jobs_total"].Value != 3 {
		t.Errorf("counter via expvar = %+v", byName["ex_jobs_total"])
	}
	hs := byName["ex_latency"]
	if hs.Count != 1 || hs.Quantiles == nil || len(hs.Buckets) != 3 {
		t.Errorf("histogram via expvar = %+v", hs)
	}
	if bi := byName["build_info"]; bi.Kind != KindInfo || len(bi.Labels) != 5 {
		t.Errorf("info via expvar = %+v", bi)
	}
}

// TestConcurrentScrapeAllFormats hammers every exposition format while
// writers update histograms, a gauge and an info metric — the -race
// coverage for the scrape path.
func TestConcurrentScrapeAllFormats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scrape_latency", "", ExpBuckets(0.001, 2, 10))
	c := r.Counter("scrape_total", "")
	g := r.Gauge("scrape_depth", "")
	RegisterBuildInfo(r, "scrape", "v0") // registered up front so snapshots always see 4 samples

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%100) * 0.001)
				c.Inc()
				g.Set(float64(i))
				if i%50 == 0 {
					RegisterBuildInfo(r, "scrape", fmt.Sprintf("v%d-%d", w, i))
				}
			}
		}(w)
	}
	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
				}
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
					t.Error(err)
				}
				if n := len(r.Snapshot()); n != 4 {
					t.Errorf("snapshot has %d samples, want 4", n)
				}
				_ = h.Quantile(0.99)
			}
		}()
	}
	scrapers.Wait() // writers keep mutating while every scrape runs
	close(stop)
	wg.Wait()
}
