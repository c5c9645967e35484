package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"involution/internal/obs"
	"involution/internal/server"
	"involution/internal/server/api"
)

// sweepRequests builds n distinct well-formed jobs (distinct seeds defeat
// result caches, so every shard really runs).
func sweepRequests(n int) []api.Request {
	reqs := make([]api.Request, n)
	for i := range reqs {
		reqs[i] = api.Request{Netlist: bufNetlist, Horizon: 10, Seed: int64(i + 1)}
	}
	return reqs
}

// resultsOf projects records onto their deterministic part: the result
// payloads in shard order. Record IDs and timestamps legitimately differ
// between runs; payloads must not.
func resultsOf(t *testing.T, recs []api.Record) string {
	t.Helper()
	var b strings.Builder
	for i, r := range recs {
		if r.Status != api.StatusCompleted {
			t.Fatalf("shard %d: status %s (class %s, error %s)", i, r.Status, r.Class, r.Error)
		}
		fmt.Fprintf(&b, "%d %s %s\n", i, r.Hash, r.Result)
	}
	return b.String()
}

func newTestCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = -1 // deterministic tests drive breakers via requests
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCoordinatorMergeDeterministicAcrossNodeCounts is the core
// determinism contract: the merged results of a sharded run are
// byte-identical for 1, 2 and 4 nodes.
func TestCoordinatorMergeDeterministicAcrossNodeCounts(t *testing.T) {
	reqs := sweepRequests(12)
	var want string
	for _, nodes := range []int{1, 2, 4} {
		peers := make([]string, nodes)
		for i := range peers {
			peers[i] = startNode(t, server.Config{})
		}
		c := newTestCoordinator(t, Options{Peers: peers, Timeout: 30 * time.Second})
		recs, err := c.Run(context.Background(), reqs, 0)
		if err != nil {
			t.Fatalf("%d nodes: Run: %v", nodes, err)
		}
		got := resultsOf(t, recs)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("%d-node merge differs from 1-node reference:\n%s\nvs\n%s", nodes, got, want)
		}
	}
}

// TestCoordinatorReschedulesAroundDeadNode points half the fleet at an
// address nothing listens on: every shard routed there must fail over to
// the survivor and the merged output must match an all-healthy reference.
func TestCoordinatorReschedulesAroundDeadNode(t *testing.T) {
	healthy := startNode(t, server.Config{})
	// Reserve a port and close the listener: connections are refused fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	// The breaker trips only after BreakerThreshold (2) failed visits, and
	// the dead port is random, so seeds 1..10 alone sometimes route just
	// one shard there. Build the 10-shard set so that at least two shards
	// prefer dead.
	ring := NewRing([]string{healthy, dead})
	var reqs []api.Request
	toDead := 0
	for seed := int64(1); len(reqs) < 10; seed++ {
		if seed > 10_000 {
			t.Fatal("no 10-shard set with two shards preferring the dead node; ring broken")
		}
		req := api.Request{Netlist: bufNetlist, Horizon: 10, Seed: seed}
		if ring.Owner(req.RouteKey()) == dead {
			toDead++
		} else if len(reqs)-toDead == 8 {
			continue // keep two slots for shards that prefer dead
		}
		reqs = append(reqs, req)
	}
	ref := newTestCoordinator(t, Options{Peers: []string{healthy}, Timeout: 30 * time.Second})
	wantRecs, err := ref.Run(context.Background(), reqs, 0)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := resultsOf(t, wantRecs)

	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{
		Peers:            []string{healthy, dead},
		Timeout:          30 * time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // once tripped, stays drained for the test
		Registry:         reg,
	})
	recs, err := c.Run(context.Background(), reqs, 0)
	if err != nil {
		t.Fatalf("Run with dead node: %v", err)
	}
	if got := resultsOf(t, recs); got != want {
		t.Fatalf("merge with dead node differs from healthy reference:\n%s\nvs\n%s", got, want)
	}
	if v := metricValue(t, reg, "cluster_reschedule_total"); v == 0 {
		t.Fatal("expected at least one reschedule off the dead node")
	}
	if v := metricValue(t, reg, "cluster_node_healthy_"+obs.SanitizeMetricName(dead)); v != 0 {
		t.Fatalf("dead node still marked healthy (gauge %v)", v)
	}
}

// TestCoordinatorHedgeWinsOverStraggler wires a node that hangs forever
// and one that answers; a shard whose preferred node is the straggler
// must be rescued by its hedge.
func TestCoordinatorHedgeWinsOverStraggler(t *testing.T) {
	healthy := startNode(t, server.Config{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body so net/http watches for client disconnect and
		// cancels the request context when the hedge winner reels us in.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // straggle until the coordinator gives up
	}))
	t.Cleanup(hang.Close)
	slow := hang.Listener.Addr().String()

	ring := NewRing([]string{healthy, slow})
	// Find a request the ring routes to the straggler first.
	var req api.Request
	for seed := int64(1); ; seed++ {
		req = api.Request{Netlist: bufNetlist, Horizon: 10, Seed: seed}
		if ring.Owner(req.RouteKey()) == slow {
			break
		}
		if seed > 10_000 {
			t.Fatal("no key prefers the slow node; ring broken")
		}
	}

	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{
		Peers:    []string{healthy, slow},
		Timeout:  30 * time.Second,
		Hedge:    100 * time.Millisecond,
		Registry: reg,
	})
	start := time.Now()
	rec, err := c.RunOne(context.Background(), req)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("status = %s, want completed", rec.Status)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedge took %v; straggler was not hedged", elapsed)
	}
	if v := metricValue(t, reg, "cluster_hedge_total"); v != 1 {
		t.Fatalf("cluster_hedge_total = %v, want 1", v)
	}
	if v := metricValue(t, reg, "cluster_hedges_won_total"); v != 1 {
		t.Fatalf("cluster_hedges_won_total = %v, want 1", v)
	}
	if v := metricValue(t, reg, "cluster_hedges_lost_total"); v != 0 {
		t.Fatalf("cluster_hedges_lost_total = %v, want 0", v)
	}
}

// TestCoordinatorHedgeLost makes the PRIMARY the slow node's rescue: the
// hedge fires but the primary answers first, so the hedge is accounted as
// lost, not won.
func TestCoordinatorHedgeLost(t *testing.T) {
	// Primary answers after a delay longer than the hedge trigger; the
	// hedge partner hangs forever. The primary's success decides the race.
	healthy := startNode(t, server.Config{})
	slowProxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		time.Sleep(300 * time.Millisecond)
		resp, err := http.Post("http://"+healthy+r.URL.RequestURI(), "application/json", strings.NewReader(string(body)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	}))
	t.Cleanup(slowProxy.Close)
	delayed := slowProxy.Listener.Addr().String()
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)
	stuck := hang.Listener.Addr().String()

	ring := NewRing([]string{delayed, stuck})
	var req api.Request
	for seed := int64(1); ; seed++ {
		req = api.Request{Netlist: bufNetlist, Horizon: 10, Seed: seed}
		if ring.Owner(req.RouteKey()) == delayed {
			break
		}
		if seed > 10_000 {
			t.Fatal("no key prefers the delayed node; ring broken")
		}
	}

	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{
		Peers:    []string{delayed, stuck},
		Timeout:  30 * time.Second,
		Hedge:    50 * time.Millisecond,
		Registry: reg,
	})
	rec, err := c.RunOne(context.Background(), req)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("status = %s, want completed", rec.Status)
	}
	if v := metricValue(t, reg, "cluster_hedge_total"); v != 1 {
		t.Fatalf("cluster_hedge_total = %v, want 1", v)
	}
	if v := metricValue(t, reg, "cluster_hedges_lost_total"); v != 1 {
		t.Fatalf("cluster_hedges_lost_total = %v, want 1", v)
	}
	if v := metricValue(t, reg, "cluster_hedges_won_total"); v != 0 {
		t.Fatalf("cluster_hedges_won_total = %v, want 0", v)
	}
}

// TestCoordinatorHedgeCanceled cancels the outer context while both the
// primary and the hedge are still in flight: the hedge never gets a
// verdict and must be accounted as canceled.
func TestCoordinatorHedgeCanceled(t *testing.T) {
	hang := func() string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		}))
		t.Cleanup(srv.Close)
		return srv.Listener.Addr().String()
	}
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{
		Peers:    []string{hang(), hang()},
		Timeout:  30 * time.Second,
		Hedge:    50 * time.Millisecond,
		Retries:  1,
		Registry: reg,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := c.RunOne(ctx, api.Request{Netlist: bufNetlist, Horizon: 10}); err == nil {
		t.Fatal("RunOne against two hung nodes should fail")
	}
	if v := metricValue(t, reg, "cluster_hedges_canceled_total"); v < 1 {
		t.Fatalf("cluster_hedges_canceled_total = %v, want >= 1", v)
	}
	if v := metricValue(t, reg, "cluster_hedges_won_total"); v != 0 {
		t.Fatalf("cluster_hedges_won_total = %v, want 0", v)
	}
}

// TestCoordinatorCacheAffinity runs the same sweep twice on two nodes and
// checks the repeats are remote cache hits — the consistent-hash routing
// sent each key back to the node that computed it.
func TestCoordinatorCacheAffinity(t *testing.T) {
	peers := []string{startNode(t, server.Config{}), startNode(t, server.Config{})}
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{Peers: peers, Timeout: 30 * time.Second, Registry: reg})
	reqs := sweepRequests(8)
	if _, err := c.Run(context.Background(), reqs, 0); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if v := metricValue(t, reg, "cluster_remote_cache_hit_total"); v != 0 {
		t.Fatalf("first run should be all cache misses, got %v hits", v)
	}
	recs, err := c.Run(context.Background(), reqs, 0)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for i, r := range recs {
		if !r.Cached {
			t.Fatalf("shard %d not served from cache on repeat run", i)
		}
	}
	if v := metricValue(t, reg, "cluster_remote_cache_hit_total"); v != float64(len(reqs)) {
		t.Fatalf("cluster_remote_cache_hit_total = %v, want %d", v, len(reqs))
	}
}

// TestCoordinatorTerminalRequestError checks a 400 is not retried across
// nodes (it is a property of the request).
func TestCoordinatorTerminalRequestError(t *testing.T) {
	peers := []string{startNode(t, server.Config{}), startNode(t, server.Config{})}
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{Peers: peers, Timeout: 10 * time.Second, Registry: reg})
	_, err := c.RunOne(context.Background(), api.Request{Netlist: "garbage"})
	if err == nil {
		t.Fatal("malformed netlist should fail")
	}
	if v := metricValue(t, reg, "cluster_reschedule_total"); v != 0 {
		t.Fatalf("400 was rescheduled %v times; terminal errors must not move nodes", v)
	}
}

func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %s not in snapshot", name)
	return 0
}

// TestCoordinatorThrottleNotBreakerFood asserts the overload contract's
// cluster half: a node refusing this tenant with 429 is throttling, not
// failing — the coordinator backs off and retries the same node without
// feeding its breaker, and the submit carries the configured API key.
func TestCoordinatorThrottleNotBreakerFood(t *testing.T) {
	var hits atomic.Int64
	var sawKey atomic.Value
	backend := "http://" + startNode(t, server.Config{})
	// A proxy that throttles the first 3 submits with 429 + Retry-After,
	// then passes through.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			sawKey.Store(r.Header.Get(api.APIKeyHeader))
			if hits.Add(1) <= 3 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"error":"tenant over request rate limit"}`)
				return
			}
		}
		pr, err := http.NewRequest(r.Method, backend+r.URL.String(), r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		pr.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(pr)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{
		Peers:            []string{proxy.URL},
		Retries:          5,
		BreakerThreshold: 2, // two failures would trip it; three 429s must not
		Registry:         reg,
		APIKey:           "team-sim",
	})
	rec, err := c.RunOne(context.Background(), api.Request{Netlist: bufNetlist, Horizon: 10, Seed: 9})
	if err != nil {
		t.Fatalf("RunOne through throttling proxy: %v", err)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("record status %s, want completed", rec.Status)
	}
	if got := sawKey.Load(); got != "team-sim" {
		t.Fatalf("node saw API key %q, want team-sim", got)
	}
	if br := c.nodes[proxy.URL].br; br.current() != breakerClosed {
		t.Fatal("three 429s tripped the breaker; throttling must not count as node illness")
	}
	// Every 429 reaches the coordinator's ladder: the client makes one
	// attempt per call.
	if got := c.met.throttled.Value(); got != 3 {
		t.Fatalf("cluster_throttled_total = %d, want 3", got)
	}
	if got := c.met.failures.Value(); got != 0 {
		t.Fatalf("cluster_attempt_failure_total = %d, want 0 (429s are not failures)", got)
	}
}

// TestCoordinatorRidesThroughTransient503 fronts a one-peer fleet with a
// proxy that refuses twice with 503 before delegating to a real node: the
// ladder retries the same node and completes.
func TestCoordinatorRidesThroughTransient503(t *testing.T) {
	proxy, seen := refusingProxy(t, startNode(t, server.Config{}), 2, http.StatusServiceUnavailable, "0")
	c := newTestCoordinator(t, Options{Peers: []string{proxy}, Retries: 2})
	rec, err := c.RunOne(context.Background(), api.Request{Netlist: bufNetlist, Horizon: 10})
	if err != nil {
		t.Fatalf("RunOne through flaky proxy: %v", err)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("status = %s, want completed", rec.Status)
	}
	if got := seen.Load(); got != 3 {
		t.Fatalf("proxy saw %d requests, want 3 (2 refusals + 1 success)", got)
	}
}

// TestCoordinatorBreakerCountsVisits pins the breaker's sensitivity to
// refusals: a visit is two tries on one node and feeds its breaker once,
// so a threshold-3 breaker stays closed through five consecutive 503s and
// trips on the sixth.
func TestCoordinatorBreakerCountsVisits(t *testing.T) {
	for _, tc := range []struct {
		refusals     int64
		wantFailures int64
		wantOpen     bool
	}{
		{refusals: 5, wantFailures: 2, wantOpen: false},
		{refusals: 6, wantFailures: 3, wantOpen: true},
	} {
		proxy, seen := refusingProxy(t, startNode(t, server.Config{}), tc.refusals, http.StatusServiceUnavailable, "0")
		c := newTestCoordinator(t, Options{
			Peers:            []string{proxy},
			Retries:          2, // six tries
			BreakerThreshold: 3,
			BreakerCooldown:  time.Minute, // a tripped breaker admits nothing for the test
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rec, err := c.RunOne(ctx, api.Request{Netlist: bufNetlist, Horizon: 10})
		cancel()
		if tc.wantOpen {
			if err == nil {
				t.Fatalf("%d refusals: RunOne succeeded on a six-try budget", tc.refusals)
			}
		} else if err != nil || rec.Status != api.StatusCompleted {
			t.Fatalf("%d refusals: RunOne = %v, %v; want completed", tc.refusals, rec.Status, err)
		}
		if got := seen.Load(); got != 6 {
			t.Fatalf("%d refusals: proxy saw %d requests, want 6", tc.refusals, got)
		}
		if got := c.met.failures.Value(); got != tc.wantFailures {
			t.Fatalf("%d refusals: cluster_attempt_failure_total = %d, want %d (one per failed visit)", tc.refusals, got, tc.wantFailures)
		}
		if open := c.nodes[proxy].br.current() == breakerOpen; open != tc.wantOpen {
			t.Fatalf("%d refusals: breaker open = %v, want %v", tc.refusals, open, tc.wantOpen)
		}
	}
}

// TestCoordinatorHonorsRetryAfterOn429 refuses once with 429 Retry-After: 1
// and checks the ladder waits out the server's ask (the throttle is
// tenant-wide) rather than just its own 20ms backoff step.
func TestCoordinatorHonorsRetryAfterOn429(t *testing.T) {
	proxy, seen := refusingProxy(t, startNode(t, server.Config{}), 1, http.StatusTooManyRequests, "1")
	c := newTestCoordinator(t, Options{Peers: []string{proxy}})
	start := time.Now()
	rec, err := c.RunOne(context.Background(), api.Request{Netlist: bufNetlist, Horizon: 10})
	if err != nil {
		t.Fatalf("RunOne through throttling proxy: %v", err)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("status = %s, want completed", rec.Status)
	}
	if elapsed := time.Since(start); elapsed < time.Second || elapsed > 5*time.Second {
		t.Fatalf("retry happened after %v; want Retry-After: 1 honoured (1s–1.25s plus the run)", elapsed)
	}
	if got := seen.Load(); got != 2 {
		t.Fatalf("proxy saw %d requests, want 2", got)
	}
}

// TestCoordinatorSkipsDrainingPeer puts a peer answering like a draining
// simd (503, Retry-After: 60) in front of a healthy one. Its Retry-After
// speaks for that node only, so the shard must move to the healthy peer
// after the normal backoff instead of sitting out the minute.
func TestCoordinatorSkipsDrainingPeer(t *testing.T) {
	var refused atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refused.Add(1)
		w.Header().Set("Retry-After", "60")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"server draining"}`)
	}))
	t.Cleanup(draining.Close)
	drainAddr := draining.Listener.Addr().String()
	c := newTestCoordinator(t, Options{Peers: []string{drainAddr, startNode(t, server.Config{})}})

	// Pick a request whose first preference is the draining peer.
	var req api.Request
	for seed := int64(1); ; seed++ {
		req = api.Request{Netlist: bufNetlist, Horizon: 10, Seed: seed}
		if c.ring.Order(req.RouteKey())[0] == drainAddr {
			break
		}
	}
	start := time.Now()
	rec, err := c.RunOne(context.Background(), req)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("RunOne took %v behind a draining peer, want < 5s", elapsed)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("status = %s, want completed", rec.Status)
	}
	if got := refused.Load(); got != 1 {
		t.Fatalf("draining peer saw %d submits, want 1", got)
	}
}

// TestCoordinatorRetryAfterHoldsNoTrial trips a one-node fleet's breaker
// and lets its cooldown pass; the half-open trial then draws a 503 with
// Retry-After: 2. The refused shard waits the two seconds out, but not
// while holding the trial: a second shard must get it and finish at once.
func TestCoordinatorRetryAfterHoldsNoTrial(t *testing.T) {
	proxy, _ := refusingProxy(t, startNode(t, server.Config{}), 1, http.StatusServiceUnavailable, "2")
	c := newTestCoordinator(t, Options{
		Peers:            []string{proxy},
		BreakerThreshold: 1,
		BreakerCooldown:  100 * time.Millisecond,
	})
	c.nodes[proxy].br.failure()
	time.Sleep(150 * time.Millisecond)

	start := time.Now()
	refused := make(chan error, 1)
	go func() {
		_, err := c.RunOne(context.Background(), api.Request{Netlist: bufNetlist, Horizon: 10, Seed: 1})
		refused <- err
	}()
	time.Sleep(300 * time.Millisecond)
	second := time.Now()
	if _, err := c.RunOne(context.Background(), api.Request{Netlist: bufNetlist, Horizon: 10, Seed: 2}); err != nil {
		t.Fatalf("second shard: %v", err)
	}
	if d := time.Since(second); d > 500*time.Millisecond {
		t.Fatalf("second shard took %v: the refused shard held the half-open trial through its Retry-After", d)
	}
	if err := <-refused; err != nil {
		t.Fatalf("refused shard: %v", err)
	}
	if d := time.Since(start); d < 2*time.Second {
		t.Fatalf("refused shard finished after %v, want its Retry-After: 2 honoured", d)
	}
}

// TestCoordinatorRetryBudgetSurfacesIntegrityError fronts a one-peer fleet
// with a proxy that corrupts every response: once the ladder's default
// budget (two tries per peer) is spent, RunOne returns the IntegrityError,
// and every failed verification was counted.
func TestCoordinatorRetryBudgetSurfacesIntegrityError(t *testing.T) {
	proxyAddr, _ := corruptingProxy(t, startNode(t, server.Config{}), 1<<30)
	c := newTestCoordinator(t, Options{Peers: []string{proxyAddr}})
	_, err := c.RunOne(context.Background(), api.Request{Netlist: bufNetlist, Horizon: 10})
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	if got := c.met.integrity.Value(); got != 2 {
		t.Fatalf("cluster_integrity_failures_total = %d, want 2 (two tries on the one peer)", got)
	}
}

// TestCoordinatorProbeLoopSurvivesHungPeer runs the health prober against
// a peer that never answers and a peer whose port is closed. Each probe is
// bounded by the probe interval, so the hung peer cannot stall the loop:
// the dead peer's breaker must open within a few intervals, not after the
// 20s job timeout.
func TestCoordinatorProbeLoopSurvivesHungPeer(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	const interval = 50 * time.Millisecond
	c := newTestCoordinator(t, Options{
		Peers:         []string{hung.Listener.Addr().String(), dead},
		Timeout:       20 * time.Second,
		ProbeInterval: interval,
	})
	deadline := time.Now().Add(40 * interval)
	for c.nodes[dead].br.current() != breakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("dead peer's breaker still %v after %v of probing behind a hung peer", c.nodes[dead].br.current(), 40*interval)
		}
		time.Sleep(interval / 5)
	}
}
