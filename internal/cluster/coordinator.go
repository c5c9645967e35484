package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"involution/internal/obs"
	"involution/internal/obs/tracing"
	"involution/internal/sched"
	"involution/internal/server/api"
	"involution/internal/splitmix"
)

// retryPause is the wait before a visit's second try on the same node.
const retryPause = 50 * time.Millisecond

// ErrNoNodes reports that every node was unavailable (breaker open or
// draining) when a shard needed one.
var ErrNoNodes = errors.New("cluster: no available nodes")

// node is one simd peer's coordinator-side state.
type node struct {
	addr     string
	br       *breaker
	sem      chan struct{} // bounds in-flight requests to this node
	healthy  *obs.Gauge
	inflight *obs.Gauge
	queue    *obs.Gauge // queue depth the node last reported via /healthz
	running  *obs.Gauge // running jobs the node last reported via /healthz
}

func (n *node) acquire(ctx context.Context) error {
	select {
	case n.sem <- struct{}{}:
		n.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (n *node) release() {
	<-n.sem
	n.inflight.Add(-1)
}

// Coordinator shards work over a fleet of simd nodes: consistent-hash
// routing for cache affinity, per-node circuit breakers fed by a health
// prober and by request outcomes, hedged retries for stragglers, and
// rescheduling of failed shards onto surviving nodes. Results come back
// indexed by submission order, so merged output is deterministic for any
// node count and failure interleaving.
type Coordinator struct {
	opts    Options
	client  *Client
	ring    *Ring
	nodes   map[string]*node
	met     *metrics
	journal *Journal // nil: no checkpoint

	stopProbe func()
	probeDone chan struct{}
	closeOnce sync.Once
}

// NewCoordinator validates opts, builds the ring, and starts the health
// prober (unless opts.ProbeInterval < 0). Close releases the prober.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	// Size the connection pool for the coordinator's actual concurrency
	// (hedges double the per-node demand), or take the caller's transport
	// as-is — the chaos harness's injection seam.
	rt := opts.Transport
	if rt == nil {
		rt = DefaultTransport(2 * opts.NodeInFlight)
	}
	c := &Coordinator{
		opts:   opts,
		client: NewClient(opts.Timeout, rt, opts.APIKey),
		ring:   NewRing(opts.Peers),
		nodes:  make(map[string]*node, len(opts.Peers)),
		met:    newMetrics(opts.Registry),
	}
	c.client.onIntegrity = c.met.integrity.Inc
	if opts.Checkpoint != "" {
		j, err := OpenJournal(opts.Checkpoint, opts.Resume)
		if err != nil {
			return nil, err
		}
		c.journal = j
	}
	for _, addr := range opts.Peers {
		n := &node{
			addr: addr,
			br:   newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, nil),
			sem:  make(chan struct{}, opts.NodeInFlight),
		}
		n.healthy = c.met.nodeHealthy(addr)
		n.inflight = c.met.nodeInFlight(addr)
		n.queue = c.met.nodeQueue(addr)
		n.running = c.met.nodeRunning(addr)
		n.healthy.Set(1)
		c.nodes[addr] = n
	}
	if opts.ProbeInterval > 0 {
		pctx, cancel := context.WithCancel(context.Background())
		c.stopProbe = cancel
		c.probeDone = make(chan struct{})
		go c.probeLoop(pctx)
	}
	return c, nil
}

// Close stops the health prober and releases the checkpoint journal.
// In-flight Run calls are unaffected (but must not outlive Close when a
// checkpoint is configured).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.stopProbe != nil {
			c.stopProbe()
			<-c.probeDone
		}
		if c.journal != nil {
			c.journal.Close()
		}
	})
}

// probeLoop polls every node's /healthz and feeds the breakers, so dead
// nodes trip open without burning a shard attempt and recovered nodes
// rejoin without waiting for live traffic to probe them. Each probe is
// bounded by one ProbeInterval, so a hung node cannot stall the probes of
// the nodes after it.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, n := range c.nodes {
			pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeInterval)
			h, err := c.client.Health(pctx, n.addr)
			cancel()
			if ctx.Err() != nil {
				return
			}
			if err != nil || h.Status != "ok" {
				n.br.failure()
			} else {
				n.br.success()
				n.queue.Set(float64(h.Queue))
				n.running.Set(float64(h.Running))
				if h.Advertise != "" && h.Advertise != n.addr {
					c.met.mismatch.Inc()
				}
			}
			n.healthy.Set(boolGauge(n.br.current() == breakerClosed))
		}
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// pick returns the first breaker-admitted node scanning the preference
// order from index start (wrapping), and the index it was found at.
// (nil, -1) means nothing is available right now.
func (c *Coordinator) pick(prefs []string, start int) (*node, int) {
	for i := 0; i < len(prefs); i++ {
		idx := (start + i) % len(prefs)
		n := c.nodes[prefs[idx]]
		if n.br.allow() {
			return n, idx
		}
	}
	return nil, -1
}

// admitting returns the node pick would admit scanning from index start,
// without consuming a half-open trial slot (nil: none right now).
func (c *Coordinator) admitting(prefs []string, start int) *node {
	for i := range prefs {
		if n := c.nodes[prefs[(start+i)%len(prefs)]]; n.br.admitAt().IsZero() {
			return n
		}
	}
	return nil
}

// peek returns the next node after index at that WOULD be admitted,
// without consuming a half-open trial slot — the hedge partner. Only
// closed breakers qualify: hedging into a recovering node would burn its
// trial on a duplicate.
func (c *Coordinator) peek(prefs []string, after int) *node {
	for i := 1; i < len(prefs); i++ {
		n := c.nodes[prefs[(after+i)%len(prefs)]]
		if n.br.current() == breakerClosed {
			return n
		}
	}
	return nil
}

// Run dispatches every request and returns the finished records in
// request order — the deterministic merge: recs[i] corresponds to reqs[i]
// no matter which node answered it, when, or after how many reschedules.
// workers <= 0 defaults to fleet capacity (nodes × NodeInFlight; hedges
// need the headroom the per-node semaphores already enforce).
//
// On error the partial records are still returned; recs[i] is the zero
// Record for shards that failed or were never dispatched.
func (c *Coordinator) Run(ctx context.Context, reqs []api.Request, workers int) ([]api.Record, error) {
	if workers <= 0 {
		workers = len(c.nodes) * c.opts.NodeInFlight
	}
	recs := make([]api.Record, len(reqs))
	errs := make([]error, len(reqs))
	ferr := sched.ForEach(ctx, workers, len(reqs), func(i int) {
		recs[i], errs[i] = c.RunOne(ctx, reqs[i])
	})
	for i, err := range errs {
		if err != nil {
			return recs, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	return recs, ferr
}

// RunOne routes one request by its content key and returns the finished
// record. Node failures reschedule the shard onto the next node in its
// preference order through the shared sched.Ladder; request errors (4xx)
// are terminal. Stragglers are hedged onto the next closed-breaker node.
func (c *Coordinator) RunOne(ctx context.Context, req api.Request) (api.Record, error) {
	// One marshal per shard: the body every attempt and hedge sends, and
	// the routing key derived from it.
	body, key, err := req.Encode()
	if err != nil {
		return api.Record{}, fmt.Errorf("cluster: encoding request: %w", err)
	}
	// Crash-safe replay: a shard the journal already holds completed in a
	// previous coordinator life; surface it without touching the network.
	if c.journal != nil {
		if rec, ok := c.journal.Lookup(key); ok {
			c.met.replays.Inc()
			return rec, nil
		}
	}
	prefs := c.ring.Order(key)
	// The dispatch span covers the shard's whole life at the coordinator:
	// routing, every (re)attempt and hedge, until a record is accepted. It
	// joins whatever trace ctx already carries (the campaign root).
	ctx, shard := c.opts.Tracer.StartSpan(ctx, "dispatch")
	shard.SetAttrs(tracing.Str("key", key), tracing.Str("route", strings.Join(prefs, ",")))
	defer shard.End()
	bo := sched.Backoff{
		Base:   20 * time.Millisecond,
		Max:    time.Second,
		Jitter: 0.5,
		Seed:   int64(keyHash(key)),
	}
	jit := uint64(keyHash(key))

	start := time.Now()
	var rec api.Record
	var lastErr error
	// The shard visits nodes in its preference order. A visit is one
	// breaker admission worth up to two tries: a failure may be a blip, so
	// the node gets one more try while its breaker stays closed, and only
	// the visit's outcome feeds the breaker. (A half-open trial gets one
	// try: its outcome alone decides the breaker.)
	var visit *node // nil between visits
	tries, idx, cursor := 0, -1, 0
	endVisit := func() {
		if visit != nil && lastErr != nil {
			c.nodeFailed(visit, lastErr)
		}
		visit = nil
	}
	sched.Ladder{MaxRetries: 2*c.opts.Retries + 1}.Run(ctx, func(n int) sched.Verdict {
		if visit != nil && (tries == 2 || visit.br.current() != breakerClosed) {
			endVisit()
		}
		var wait time.Duration
		// A 429 throttles the tenant on every node: wait out the fleet's
		// Retry-After whichever node comes next.
		if se := refusal(lastErr, http.StatusTooManyRequests); se != nil && se.RetryAfter > 0 {
			wait = jitterStretch(se.RetryAfter, &jit)
		}
		// A 503's Retry-After speaks for the node that sent it: honour it
		// unless another node could take the shard now. Neither the lookup
		// nor the wait holds a half-open trial: a visit continues only on
		// a closed breaker, and a new one is picked after the wait.
		if se := refusal(lastErr, http.StatusServiceUnavailable); se != nil && se.RetryAfter > 0 {
			if next := c.admitting(prefs, cursor); next != nil && next.addr != se.Node {
				endVisit()
			} else {
				wait = jitterStretch(se.RetryAfter, &jit)
			}
		}
		if n > 0 {
			// A visit's second try follows a short fixed pause; moving to
			// another node follows the shard's exponential backoff.
			var step time.Duration
			if visit != nil {
				step = jitterStretch(retryPause, &jit)
			} else {
				step = bo.Next()
			}
			if !sleepCtx(ctx, max(wait, step)) {
				return sched.Done
			}
		}
		if visit == nil {
			if n > 0 {
				c.met.retries.Inc()
			}
			primary, i := c.pick(prefs, cursor)
			if primary == nil {
				// Every breaker is refusing. Nothing was dispatched, so this
				// must not consume the shard's reschedule budget (shards racing
				// for the single half-open trial slot would drain their ladders
				// just waiting): wait up to one full cooldown for readmission,
				// and only charge a retry if the fleet still refuses after it.
				waitUntil := time.Now().Add(c.opts.BreakerCooldown)
				for primary == nil && ctx.Err() == nil && time.Now().Before(waitUntil) {
					c.sleepUntilAdmission(ctx, prefs)
					primary, i = c.pick(prefs, cursor)
				}
				if primary == nil {
					lastErr = ErrNoNodes
					if ctx.Err() != nil {
						return sched.Done
					}
					return sched.Retry
				}
			}
			visit, idx, tries = primary, i, 0
			cursor = i + 1 // the next visit starts at the next distinct node
		}
		tries++
		rec, lastErr = c.attempt(ctx, visit, c.peek(prefs, idx), body, key)
		switch {
		case lastErr == nil:
			return sched.Done
		case ctx.Err() != nil:
			return sched.Done
		case isTerminalRequestError(lastErr):
			return sched.Done // another node would refuse identically
		default:
			return sched.Retry
		}
	})
	if lastErr != nil {
		endVisit()
		shard.SetAttrs(tracing.Str("error", lastErr.Error()))
		shard.SetAbort(abortClassOf(ctx, lastErr))
		return api.Record{}, lastErr
	}
	c.met.latency.Observe(time.Since(start).Seconds())
	if rec.Cached {
		c.met.remoteHits.Inc()
		shard.SetAttrs(tracing.Int("remote_cache_hit", 1))
		// A lake-tier hit means the node answered from its persistent
		// store: the result predates this campaign (or even this process),
		// so the sweep deduplicated real work, not just a warm RAM cache.
		if rec.CacheTier == api.TierLake {
			c.met.lakeDedups.Inc()
			shard.SetAttrs(tracing.Int("lake_dedup", 1))
		}
	}
	// Make the shard durable before surfacing it: after a crash between
	// Append and the caller's own flush, re-running the shard replays this
	// exact record, so the merged output cannot fork.
	if c.journal != nil {
		if err := c.journal.Append(key, rec); err != nil {
			return api.Record{}, err
		}
	}
	return rec, nil
}

// sleepUntilAdmission blocks until the earliest moment a breaker in prefs
// could admit a request again (bounded by ctx). Returns immediately if
// any breaker would already admit — pick lost a race, retry right away.
func (c *Coordinator) sleepUntilAdmission(ctx context.Context, prefs []string) {
	var soonest time.Time
	for _, p := range prefs {
		at := c.nodes[p].br.admitAt()
		if at.IsZero() {
			return
		}
		if soonest.IsZero() || at.Before(soonest) {
			soonest = at
		}
	}
	d := time.Until(soonest)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// abortClassOf maps a coordinator-side failure to a span abort class.
func abortClassOf(ctx context.Context, err error) string {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "canceled"
	}
	return "dispatch-failed"
}

// refusal returns err as a node's refusal with HTTP status code, or nil.
func refusal(err error, code int) *StatusError {
	var se *StatusError
	if errors.As(err, &se) && se.Code == code {
		return se
	}
	return nil
}

// jitterStretch stretches d by a uniform fraction in [0, 25%) drawn from a
// splitmix64 stream held in state — the client half of thundering-herd
// avoidance on Retry-After.
func jitterStretch(d time.Duration, state *uint64) time.Duration {
	frac := float64(splitmix.Next(state)>>11) / float64(1<<53)
	return d + time.Duration(float64(d)*0.25*frac)
}

// sleepCtx waits d or until ctx is done; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// isThrottle reports a 429 — the fleet's admission control refusing this
// tenant, not a node failing.
func isThrottle(err error) bool {
	return refusal(err, http.StatusTooManyRequests) != nil
}

// isTerminalRequestError reports a refusal that is a property of the
// request, not the node — rescheduling cannot help.
func isTerminalRequestError(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code >= 400 && se.Code < 500 &&
		se.Code != http.StatusTooManyRequests
}

// nodeFailed feeds a failed request to its node's breaker, unless the
// error says nothing about the node: a 429 throttles the tenant, and a
// canceled request was abandoned by its caller.
func (c *Coordinator) nodeFailed(nd *node, err error) {
	if isThrottle(err) || errors.Is(err, context.Canceled) {
		return
	}
	nd.br.failure()
	nd.healthy.Set(boolGauge(nd.br.current() == breakerClosed))
	c.met.failures.Inc()
}

// attempt submits the encoded request (body, with its RouteKey key) to
// primary, hedging a duplicate onto partner when the primary outlives the
// hedge delay. The first success wins and cancels the loser. A failed
// hedge feeds its node's breaker here; the primary's error is returned
// for the caller's visit to account for.
func (c *Coordinator) attempt(ctx context.Context, primary, partner *node, body []byte, key string) (api.Record, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		rec    api.Record
		err    error
		nd     *node
		hedged bool
	}
	results := make(chan outcome, 2)
	launch := func(nd *node, hedged bool) {
		go func() {
			// Each attempt gets its own span; its context carries it into
			// Client.submit, where it becomes the traceparent the node's job
			// root parents on.
			sctx, sp := c.opts.Tracer.StartSpan(actx, "attempt")
			h := int64(0)
			if hedged {
				h = 1
			}
			sp.SetAttrs(tracing.Str("node", nd.addr), tracing.Int("hedged", h))
			if err := nd.acquire(sctx); err != nil {
				sp.SetAbort("canceled")
				sp.End()
				results <- outcome{err: err, nd: nd, hedged: hedged}
				return
			}
			defer nd.release()
			rec, err := c.client.submit(sctx, nd.addr, body, key)
			if err != nil {
				sp.SetAttrs(tracing.Str("error", err.Error()))
				sp.SetAbort(abortClassOf(sctx, err))
			}
			sp.End()
			results <- outcome{rec: rec, err: err, nd: nd, hedged: hedged}
		}()
	}

	c.met.dispatches.Inc()
	launch(primary, false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.opts.Hedge > 0 && partner != nil {
		hedgeTimer = time.NewTimer(c.opts.Hedge)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	pending := 1
	hedgeLaunched := false
	var primaryErr error
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			c.met.hedges.Inc()
			hedgeLaunched = true
			pending++
			launch(partner, true)
		case o := <-results:
			pending--
			induced := actx.Err() != nil && ctx.Err() == nil
			if o.err == nil {
				o.nd.br.success()
				o.nd.healthy.Set(1)
				// Classify the hedge at race-decision time: its success
				// decided the shard (won) or the primary's did (lost — the
				// duplicate work bought nothing, however it ends).
				if hedgeLaunched {
					if o.hedged {
						c.met.hedgesWon.Inc()
					} else {
						c.met.hedgesLost.Inc()
					}
				}
				cancel() // the race is decided; reel in the loser
				return o.rec, nil
			}
			switch {
			case induced:
				// The race's loser; says nothing about the node.
			case isThrottle(o.err):
				// 429 is tenant throttling, not node illness: the node
				// answered promptly and would serve another tenant fine.
				// Feeding it to the breaker would let one over-quota tenant
				// mark the whole fleet dead. Count it, back off (the ladder
				// honours Retry-After), leave the breaker alone.
				c.met.throttled.Inc()
			case o.hedged:
				c.nodeFailed(o.nd, o.err)
			}
			if !o.hedged {
				primaryErr = o.err
			}
		}
	}
	// No attempt succeeded. A hedge undone by outer cancellation never got
	// a verdict (canceled); one that merely failed alongside the primary
	// lost like any other attempt.
	if hedgeLaunched {
		if ctx.Err() != nil {
			c.met.hedgesCanceled.Inc()
		} else {
			c.met.hedgesLost.Inc()
		}
	}
	return api.Record{}, primaryErr
}
