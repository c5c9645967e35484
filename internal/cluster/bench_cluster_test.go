package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"involution/internal/server"
	"involution/internal/server/api"
)

// benchChainNetlist exercises the full parse → build → simulate path on
// the node: an η-involution exp channel into a buffer.
const benchChainNetlist = "circuit chain\ninput i\noutput o\ngate g BUF init=0\nchannel i g 0 exp tau=1 tp=0.5 vth=0.6\nchannel g o 0 zero\n"

// benchRequest builds one shard; distinct seeds defeat the node result
// caches, so every shard really simulates.
func benchRequest(seed int64) api.Request {
	return api.Request{
		Netlist: benchChainNetlist,
		Inputs:  map[string]string{"i": "0 r@1 f@2"},
		Horizon: 50,
		Seed:    seed,
	}
}

// benchNode starts a real in-process simd node.
func benchNode(b *testing.B, workers int) string {
	b.Helper()
	return benchPacedNode(b, workers, 0)
}

// benchPacedNode starts a real simd node whose handler is preceded by a
// fixed service delay. The pacing models a remote worker's end-to-end
// service time (network + a machine's worth of compute): in-process
// nodes share this host's cores, so a CPU-bound workload could never
// show fleet scaling on a small CI box regardless of how well the
// coordinator spreads load. With paced nodes and one in-flight shard
// per node, throughput is bounded by per-node service time — exactly
// the resource that adding nodes multiplies.
func benchPacedNode(b *testing.B, workers int, pace time.Duration) string {
	b.Helper()
	s := server.New(server.Config{Workers: workers, QueueDepth: 4096, CacheBytes: 64 << 20})
	inner := s.Handler()
	var h http.Handler = inner
	if pace > 0 {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(pace)
			inner.ServeHTTP(w, r)
		})
	}
	hs := httptest.NewServer(h)
	b.Cleanup(func() {
		hs.Close()
		s.Drain(30 * time.Second)
	})
	return hs.Listener.Addr().String()
}

// BenchmarkClusterDispatch measures the coordinator's per-shard overhead:
// routing, node accounting and the HTTP round trip, isolated from
// simulation cost by hitting the node's result cache on every iteration.
func BenchmarkClusterDispatch(b *testing.B) {
	addr := benchNode(b, 2)
	coord, err := NewCoordinator(Options{Peers: []string{addr}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	req := benchRequest(1)
	if _, err := coord.RunOne(context.Background(), req); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.RunOne(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSweepThroughput measures sustained sharded-sweep
// throughput against fleets of one and two paced nodes (5ms service
// time each, one in-flight shard per node). The nodes=2 figure
// demonstrates the horizontal scaling the coordinator exists for; the
// target of 1.5× the nodes=1 figure is not gated, and the gap to the
// ideal 2× is the coordinator's routing-imbalance plus dispatch overhead.
func BenchmarkClusterSweepThroughput(b *testing.B) {
	const pace = 5 * time.Millisecond
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			addrs := make([]string, nodes)
			for i := range addrs {
				addrs[i] = benchPacedNode(b, 2, pace)
			}
			coord, err := NewCoordinator(Options{
				Peers:         addrs,
				NodeInFlight:  1,
				ProbeInterval: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(coord.Close)
			reqs := make([]api.Request, b.N)
			for i := range reqs {
				reqs[i] = benchRequest(int64(i + 1))
			}
			b.ResetTimer()
			// 4 workers per node keep every node's semaphore fed even
			// when consecutive shards hash to the same node.
			if _, err := coord.Run(context.Background(), reqs, 4*nodes); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
