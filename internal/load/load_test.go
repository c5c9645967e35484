package load

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"involution/internal/admission"
	"involution/internal/cluster"
	"involution/internal/server"
)

// overloadedNode serves a deliberately tiny simd: one worker, a short
// queue, and a per-key rate quota — everything a flood needs to shed.
func overloadedNode(t *testing.T, cfg server.Config) string {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(5 * time.Second)
	})
	return ts.URL
}

func TestRunAccountsEveryArrival(t *testing.T) {
	addr := overloadedNode(t, server.Config{Workers: 2, QueueDepth: 4, CacheBytes: 1 << 20})
	res, err := Run(context.Background(), Profile{
		Addr:     addr,
		Duration: 500 * time.Millisecond,
		Rate:     200,
		Clients:  32,
		KeySpace: 8,
		ZipfS:    1.2,
		Horizon:  20,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	// Conservation: every offered arrival has exactly one verdict.
	sum := res.Accepted + res.Lost + res.ShedQuota + res.ShedCapacity + res.Errors + res.Saturated
	if sum != res.Offered {
		t.Fatalf("verdicts %d != offered %d (%+v)", sum, res.Offered, res)
	}
	if res.Accepted != res.Completed+res.Aborted {
		t.Fatalf("accepted %d != completed %d + aborted %d", res.Accepted, res.Completed, res.Aborted)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d accepted jobs", res.Lost)
	}
	if res.Errors != 0 {
		t.Fatalf("transport errors against a local node: %d", res.Errors)
	}
	if res.Accepted > 0 && res.P99 == 0 {
		t.Fatal("no latency quantiles despite accepted jobs")
	}
	if res.P50 > res.P95 || res.P95 > res.P99 {
		t.Fatalf("quantiles not monotone: p50 %v p95 %v p99 %v", res.P50, res.P95, res.P99)
	}
	// A hot-key Zipf flood against a warm cache must hit it.
	if res.CacheHits == 0 {
		t.Fatalf("zipf flood over 8 keys produced no cache hits (%+v)", res)
	}
}

func TestRunFloodShedsUnderQuota(t *testing.T) {
	ctl := admission.New(admission.Config{
		Default: admission.Limits{RPS: 10, Burst: 5},
	})
	addr := overloadedNode(t, server.Config{
		Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20, Admission: ctl,
	})
	res, err := Run(context.Background(), Profile{
		Addr:     addr,
		Duration: 500 * time.Millisecond,
		Rate:     300,
		Clients:  64,
		Tenants:  3,
		Churn:    200 * time.Millisecond,
		KeySpace: 4,
		ZipfS:    1.3,
		Horizon:  20,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedQuota == 0 {
		t.Fatalf("30x-over-quota flood produced no 429s (%+v)", res)
	}
	if res.RetryAfterMissing != 0 {
		t.Fatalf("%d sheds arrived without Retry-After", res.RetryAfterMissing)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d accepted jobs under flood", res.Lost)
	}
	if res.Accepted == 0 {
		t.Fatalf("quota shed everything — goodput collapsed to zero (%+v)", res)
	}
}

func TestCalibrateAndWidth(t *testing.T) {
	addr := overloadedNode(t, server.Config{Workers: 3, QueueDepth: 8, CacheBytes: 1 << 20})
	d, err := Calibrate(context.Background(), addr, 20, 999_999, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("calibrated service time %v", d)
	}
	// simctl load reads the pool width through the one simd client.
	h, err := cluster.NewClient(5*time.Second, nil, "").Health(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if h.Width != 3 {
		t.Fatalf("width = %d, want 3", h.Width)
	}
}

func TestRunRejectsBadProfile(t *testing.T) {
	if _, err := Run(context.Background(), Profile{Addr: "http://x", Duration: time.Second}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(context.Background(), Profile{Addr: "http://x", Rate: 10}); err == nil {
		t.Fatal("zero duration accepted")
	}
}
