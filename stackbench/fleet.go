package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"involution/internal/cluster"
	"involution/internal/lake"
	"involution/internal/obs"
	"involution/internal/server"
)

// node is one in-process simd node: its own lake behind server.New with
// simd's default Config except Workers: 1, served by a real net/http
// server on a loopback port.
type node struct {
	lk     *lake.Lake
	srv    *server.Server
	hs     *http.Server
	addr   string
	served chan error
}

// fleet is the nodes plus the coordinator clients go through.
type fleet struct {
	nodes     []*node
	coord     *cluster.Coordinator
	reg       *obs.Registry
	transport *http.Transport
}

// startFleet opens one node per lake directory and a coordinator over
// them. ckpt, when non-empty, is the coordinator's checkpoint journal
// (truncated, not resumed). lake.Open durations are recorded.
//
// The coordinator knows node i as the fixed peer peerName(i), which its
// transport dials at node i's loopback port of the moment: the hash ring
// is built from peer names, so a restarted fleet routes every key to the
// node whose lake already holds it.
func (r *result) startFleet(lakeDirs []string, ckpt string) (*fleet, error) {
	f := &fleet{reg: obs.NewRegistry()}
	peers := make([]string, len(lakeDirs))
	dial := make(map[string]string, len(lakeDirs))
	for i, dir := range lakeDirs {
		t0 := time.Now()
		lk, err := lake.Open(lake.Options{Dir: dir})
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("lake.Open: %w", err)
		}
		r.lakeOpens = append(r.lakeOpens, time.Since(t0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lk.Close()
			f.stop()
			return nil, err
		}
		srv := server.New(server.Config{Workers: 1, Lake: lk})
		n := &node{
			lk:     lk,
			srv:    srv,
			hs:     &http.Server{Handler: r.tr.handler(srv.Handler())},
			addr:   ln.Addr().String(),
			served: make(chan error, 1),
		}
		go func() { n.served <- n.hs.Serve(ln) }()
		f.nodes = append(f.nodes, n)
		peers[i] = fmt.Sprintf("node%d.stackbench:80", i)
		dial[peers[i]] = n.addr
	}
	f.transport = cluster.DefaultTransport(inFlight)
	f.transport.MaxConnsPerHost = inFlight
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	f.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := dial[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}
	coord, err := cluster.NewCoordinator(cluster.Options{
		Peers:      peers,
		Registry:   f.reg,
		Transport:  r.tr.transport(f.transport),
		Checkpoint: ckpt,
	})
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("cluster.NewCoordinator: %w", err)
	}
	f.coord = coord
	return f, nil
}

// stop shuts the fleet down the way simd does on SIGTERM — drain, then
// close the listener, then the lake — and waits for every server
// goroutine to return.
func (f *fleet) stop() error {
	if f.coord != nil {
		f.coord.Close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	var errs []error
	for _, n := range f.nodes {
		n.srv.Drain(30 * time.Second)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		if err := n.lk.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// counters is a set of monotone fleet counters: the nodes' simd_* series
// scraped from /metrics plus the coordinator's cluster_* registry.
type counters map[string]float64

// scrapedSeries are the /metrics series the per-layer metrics use.
var scrapedSeries = []string{
	"simd_sim_run_seconds_sum",
	"simd_sim_run_seconds_count",
	"simd_queue_wait_seconds_sum",
	"simd_cache_hits_total",
	"simd_cache_hits_lake_total",
	"simd_jobs_submitted_total",
	"simd_lake_put_errors_total",
}

func (f *fleet) counters() (counters, error) {
	c := counters{}
	for _, n := range f.nodes {
		if err := scrape(n.addr, c); err != nil {
			return nil, err
		}
	}
	for _, s := range f.reg.Snapshot() {
		if strings.HasPrefix(s.Name, "cluster_") && s.Kind == obs.KindCounter {
			c[s.Name] += s.Value
		}
	}
	return c, nil
}

// scrape adds one node's /metrics series to c.
func scrape(addr string, c counters) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	want := map[string]bool{}
	for _, s := range scrapedSeries {
		want[s] = true
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("metric %s: %w", name, err)
		}
		c[name] += v
	}
	return sc.Err()
}

// add accumulates the change from before to after.
func (c counters) add(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// layers derives the server, lake and cluster metrics from the deltas.
func (c counters) layers(vals map[string]float64, jobs float64) {
	if jobs == 0 {
		return
	}
	vals["server.sim_us"] = c["simd_sim_run_seconds_sum"] / jobs * 1e6
	vals["server.sim_runs"] = c["simd_sim_run_seconds_count"]
	vals["server.queue_wait_us"] = c["simd_queue_wait_seconds_sum"] / jobs * 1e6
	vals["server.cache_hits"] = c["simd_cache_hits_total"]
	vals["server.submits"] = c["simd_jobs_submitted_total"]
	vals["lake.hits"] = c["simd_cache_hits_lake_total"]
	vals["lake.put_errors"] = c["simd_lake_put_errors_total"]
	vals["cluster.attempt_failures"] = c["cluster_attempt_failure_total"]
	if s := c["simd_jobs_submitted_total"]; s > 0 {
		vals["server.cache_hit_ratio"] = c["simd_cache_hits_total"] / s
		vals["lake.hit_ratio"] = c["simd_cache_hits_lake_total"] / s
	}
}

// segment brackets one stretch of timed fleet work: it resumes the clock
// and, when tracing, snapshots the fleet counters; end pauses the clock
// and folds the counter deltas into the run.
type segment struct {
	r      *result
	f      *fleet
	w      *window
	before counters
}

func (r *result) begin(f *fleet) (*segment, error) {
	s := &segment{r: r, f: f, w: r.window()}
	if r.tr.enabled() {
		c, err := f.counters()
		if err != nil {
			return nil, err
		}
		s.before = c
	}
	s.w.resume()
	return s, nil
}

func (s *segment) end() error {
	s.w.pause()
	if s.before == nil {
		return nil
	}
	after, err := s.f.counters()
	if err != nil {
		return err
	}
	s.r.counters.add(s.before, after)
	return nil
}
