// Package cluster shards simulation campaigns and parameter sweeps over a
// fleet of simd nodes, speaking the unmodified simd wire protocol
// (internal/server/api). It is the coordinator half of the
// simulation-as-a-service story: cmd/simd owns one machine's worker pool
// and result cache; cluster owns the fan-out across machines.
//
// The design leans on three properties the rest of the repository already
// guarantees:
//
//   - Content addressing. Every request has a deterministic content key
//     (api.Request.RouteKey), and completed simd results are byte-identical
//     functions of the canonical request. Routing a request by its content
//     key (consistent hashing, see Ring) therefore sends repeat work to the
//     node that already holds the cached result.
//
//   - Determinism. Because each shard's result depends only on the request,
//     the coordinator can reassemble shards in submission order and produce
//     output byte-identical to a single-node run — for any node count and
//     any failure interleaving (Coordinator.Run collects by index, never by
//     arrival order).
//
//   - Typed failure. Node failures (connection refused, 503s, timeouts)
//     are infrastructure errors, retried on other nodes via the shared
//     sched.Ladder; simulation aborts (budget, deadline, panic) are payload
//     outcomes, returned to the caller untouched.
//
// The coordinator's ladder is the only retry loop: a Client call is one
// try. A shard visits nodes in its preference order, up to two tries per
// visit, and each failed visit feeds the node's breaker once. A 429's
// Retry-After throttles the tenant on every node, so the ladder always
// waits it out; a 503's speaks for one node, so the ladder honours it
// only when its next pick is that same node and otherwise moves on after
// its normal backoff.
//
// The health prober (Prober) drives a per-node circuit breaker: nodes that
// fail their probes are drained from the ring and their in-flight shards
// rescheduled on survivors; recovered nodes re-enter through a half-open
// trial. Slow nodes are hedged: when a shard's first attempt outlives the
// hedge delay, a duplicate is sent to the next node in the shard's
// preference order and the first result wins.
package cluster

import (
	"fmt"
	"net/http"
	"time"

	"involution/internal/obs"
	"involution/internal/obs/tracing"
)

// Options configures a Coordinator.
type Options struct {
	// Peers are the simd node base addresses ("host:port" or full URLs).
	Peers []string
	// Timeout bounds each HTTP attempt (default 2 minutes).
	Timeout time.Duration
	// Hedge is the straggler delay: an attempt older than this gets a
	// duplicate on the next preferred node (0 disables hedging).
	Hedge time.Duration
	// Retries is the per-shard reschedule allowance. A shard visits the
	// admitted nodes in its preference order, with up to two tries per
	// visit, and gets at most 2·(Retries+1) tries in all (default:
	// len(Peers)-1, i.e. two tries on every node).
	Retries int
	// NodeInFlight caps concurrent requests per node (default 4).
	NodeInFlight int
	// ProbeInterval is the health-prober period (default 1s; negative
	// disables the background prober).
	ProbeInterval time.Duration
	// BreakerThreshold trips a node's breaker after that many consecutive
	// failures (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped node rests before a half-open
	// trial (default 5s).
	BreakerCooldown time.Duration
	// Registry receives the cluster_* metrics (nil: metrics are dropped).
	Registry *obs.Registry
	// Tracer records coordinator-side spans (dispatch, attempt) and
	// propagates trace context to nodes via the traceparent header. Nil —
	// the default — disables tracing at zero cost.
	Tracer *tracing.Tracer
	// Transport overrides the client's HTTP transport (nil: a tuned
	// DefaultTransport sized to NodeInFlight). The chaos harness injects
	// its fault transport here.
	Transport http.RoundTripper
	// Checkpoint, when non-empty, is the path of a crash-safe result
	// journal: completed shards are journaled as they land, with fsyncs
	// coalesced over a small row/interval batch, and with Resume true the
	// durable shards replay without dispatch — a SIGKILLed coordinator
	// re-run redoes only the slots missing from the durable prefix, and
	// determinism makes the merged output byte-identical either way.
	Checkpoint string
	// Resume loads an existing Checkpoint journal instead of truncating it.
	Resume bool
	// APIKey identifies this coordinator's tenant to the fleet's admission
	// controllers: it rides every submit as the X-Api-Key header. A 429
	// refusal under the key is tenant throttling — the coordinator backs
	// off and retries without counting the node as unhealthy.
	APIKey string
}

// withDefaults returns a copy with unset knobs at their defaults.
func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Retries <= 0 {
		o.Retries = len(o.Peers) - 1
	}
	if o.NodeInFlight <= 0 {
		o.NodeInFlight = 4
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

func (o Options) validate() error {
	if len(o.Peers) == 0 {
		return fmt.Errorf("cluster: no peers")
	}
	seen := make(map[string]bool, len(o.Peers))
	for _, p := range o.Peers {
		if p == "" {
			return fmt.Errorf("cluster: empty peer address")
		}
		if seen[p] {
			return fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
	}
	return nil
}
