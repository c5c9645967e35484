package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGCRABurstThenRefill(t *testing.T) {
	g := newGCRA(10, 5) // 10 tok/s, bucket of 5
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		if ok, _ := g.allow(now, 1); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, wait := g.allow(now, 1)
	if ok {
		t.Fatal("6th instantaneous request conformed past the burst")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("retry-after = %v, want ~100ms (one emission interval)", wait)
	}
	if ok, _ := g.allow(now.Add(wait), 1); !ok {
		t.Fatal("request at the advertised retry-after still refused")
	}
}

func TestGCRAUnlimitedAndOversizedCost(t *testing.T) {
	if ok, _ := (*gcra)(nil).allow(time.Now(), 1); !ok {
		t.Fatal("nil gcra refused")
	}
	if ok, _ := newGCRA(0, 0).allow(time.Now(), 1e9); !ok {
		t.Fatal("unlimited gcra refused")
	}
	g := newGCRA(100, 10)
	now := time.Unix(1000, 0)
	ok, wait := g.allow(now, 50) // cost larger than the whole bucket
	if ok {
		t.Fatal("cost 50 conformed against a bucket of 10")
	}
	if wait <= 0 {
		t.Fatalf("oversized cost must advertise a positive wait, got %v", wait)
	}
}

func TestGCRAEnforcesRateWithinTolerance(t *testing.T) {
	g := newGCRA(1000, 10)
	start := time.Unix(2000, 0)
	admitted := 0
	// Offer 4× the sustained rate for a simulated second.
	for i := 0; i < 4000; i++ {
		now := start.Add(time.Duration(i) * time.Millisecond / 4)
		if ok, _ := g.allow(now, 1); ok {
			admitted++
		}
	}
	// ~1000 sustained + ≤10 burst.
	if admitted < 950 || admitted > 1060 {
		t.Fatalf("admitted %d of 4000 in 1s at 1000 rps, want ≈1000–1010", admitted)
	}
}

func TestControllerQuotaVsUnlimited(t *testing.T) {
	c := New(Config{
		Tenants: []TenantConfig{
			{Key: "gold", Name: "gold", Limits: Limits{RPS: 1000, Burst: 1000}},
			{Key: "free", Limits: Limits{RPS: 5, Burst: 5}},
		},
	})
	now := time.Unix(3000, 0)
	for i := 0; i < 5; i++ {
		if d := c.AdmitRequest("free", now); !d.OK {
			t.Fatalf("free request %d refused inside burst", i)
		}
	}
	d := c.AdmitRequest("free", now)
	if d.OK || d.Reason != ReasonRate || d.RetryAfter <= 0 {
		t.Fatalf("over-burst decision = %+v, want rate refusal with retry-after", d)
	}
	if d := c.AdmitRequest("gold", now); !d.OK || d.Tenant != "gold" {
		t.Fatalf("gold refused: %+v", d)
	}
	// Anonymous and unknown keys are unlimited under the zero Default.
	if d := c.AdmitRequest("", now); !d.OK {
		t.Fatalf("anonymous refused under zero default: %+v", d)
	}
	if d := c.AdmitRequest("stranger", now); !d.OK {
		t.Fatalf("stranger refused under zero default: %+v", d)
	}
	// The nil controller admits everything.
	var nilC *Controller
	if d := nilC.AdmitRequest("x", now); !d.OK {
		t.Fatal("nil controller refused")
	}
	if d := nilC.ChargeEvents("x", 1e9, now); !d.OK {
		t.Fatal("nil controller refused events")
	}
}

func TestControllerEventBudget(t *testing.T) {
	c := New(Config{Tenants: []TenantConfig{
		{Key: "k", Limits: Limits{EventsPerSec: 1000, EventBurst: 2000}},
	}})
	now := time.Unix(4000, 0)
	if d := c.ChargeEvents("k", 2000, now); !d.OK {
		t.Fatalf("burst-sized charge refused: %+v", d)
	}
	d := c.ChargeEvents("k", 500, now)
	if d.OK || d.Reason != ReasonBudget {
		t.Fatalf("over-budget decision = %+v, want budget refusal", d)
	}
	if d := c.ChargeEvents("k", 500, now.Add(d.RetryAfter)); !d.OK {
		t.Fatalf("charge at advertised retry-after refused: %+v", d)
	}
}

func TestControllerDynamicChurnBounded(t *testing.T) {
	c := New(Config{Default: Limits{RPS: 100, Burst: 100}, MaxDynamic: 64})
	now := time.Unix(5000, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("churn-%d", i)
		if d := c.AdmitRequest(key, now); !d.OK {
			t.Fatalf("churned key %d refused: %+v", i, d)
		}
	}
	if n := c.dynCount.Load(); n > 64 {
		t.Fatalf("dynamic tenant count %d exceeds MaxDynamic=64", n)
	}
	// The aggregate usage survives mass evictions.
	var dyn Usage
	c.Flush(func(name string, u Usage) {
		if name == "dynamic" {
			dyn = u
		}
	})
	if dyn.Admitted != 1000 {
		t.Fatalf("dynamic admitted = %d, want 1000 (usage lost in eviction)", dyn.Admitted)
	}
}

// TestControllerConcurrentFloodEnforcement is the -race flood: many
// goroutines hammer a small set of tenants concurrently; limits must hold
// within tolerance, admissions must be exactly accounted (no admit lost,
// no refusal double-counted), and the controller must stay responsive.
func TestControllerConcurrentFloodEnforcement(t *testing.T) {
	const tenants = 4
	var cfgs []TenantConfig
	for i := 0; i < tenants; i++ {
		cfgs = append(cfgs, TenantConfig{
			Key:    fmt.Sprintf("t%d", i),
			Limits: Limits{RPS: 200, Burst: 50, EventsPerSec: 1e6, EventBurst: 1e6},
		})
	}
	c := New(Config{Tenants: cfgs})

	const workers = 8
	const perWorker = 2000
	start := time.Unix(6000, 0)
	var wg sync.WaitGroup
	admitted := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		admitted[w] = make([]int64, tenants)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Virtual time advances identically for all workers: the
				// whole flood spans one simulated second.
				now := start.Add(time.Duration(i) * time.Millisecond / 2)
				key := fmt.Sprintf("t%d", (w+i)%tenants)
				if d := c.AdmitRequest(key, now); d.OK {
					admitted[w][(w+i)%tenants]++
					if ed := c.ChargeEvents(key, 100, now); !ed.OK {
						t.Errorf("event budget refused inside allowance: %+v", ed)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	perTenant := make([]int64, tenants)
	var total int64
	for w := range admitted {
		for k, n := range admitted[w] {
			perTenant[k] += n
			total += n
		}
	}
	// Each tenant saw 4000 offered requests across one simulated second
	// at 200 rps + 50 burst: enforcement within tolerance means no tenant
	// lands far off ~250.
	for k, n := range perTenant {
		if n < 200 || n > 300 {
			t.Errorf("tenant %d admitted %d of 4000, want ≈200–300 (200 rps + 50 burst over 1s)", k, n)
		}
	}
	// Coalesced accounting must agree exactly with the callers' view.
	var flushed int64
	c.Flush(func(name string, u Usage) { flushed += u.Admitted })
	if flushed != total {
		t.Fatalf("flushed admitted total %d != callers' %d", flushed, total)
	}
}
