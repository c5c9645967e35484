package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"involution/internal/obs/tracing"
	"involution/internal/sched"
	"involution/internal/server/api"
	"involution/internal/splitmix"
)

// StatusError is a non-2xx simd response: the node answered, but refused.
// The split between retryable (503 overload, 429) and terminal (400 bad
// request, …) drives the client's retry ladder.
type StatusError struct {
	// Node is the base address that answered.
	Node string
	// Code is the HTTP status.
	Code int
	// Message is the server's error body, when it sent one.
	Message string
	// RetryAfter is the parsed Retry-After header (0: absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.Code)
	}
	return fmt.Sprintf("cluster: %s: HTTP %d: %s", e.Node, e.Code, msg)
}

// Temporary reports whether the refusal is worth retrying on the same
// node: overload and draining (503) and throttling (429) pass; client
// errors do not.
func (e *StatusError) Temporary() bool {
	return e.Code == http.StatusServiceUnavailable || e.Code == http.StatusTooManyRequests
}

// Client is a typed simd protocol client for one logical fleet. It speaks
// to base addresses ("host:port" or "http://host:port"); per-request
// timeouts, capped exponential backoff with jitter, and Retry-After
// honoring are built in. The zero value is not usable; use NewClient.
type Client struct {
	hc *http.Client
	// timeout bounds each individual HTTP attempt.
	timeout time.Duration
	// retries is the transient-retry allowance per call (same node).
	retries int
	// backoff seeds per-call Backoff instances.
	backoffBase time.Duration
	backoffMax  time.Duration
	seed        int64
	// onIntegrity, when set, is called once per failed end-to-end record
	// verification (the coordinator counts these in
	// cluster_integrity_failures_total).
	onIntegrity func()
	// apiKey, when set, rides every submit as the X-Api-Key header so the
	// fleet's admission controllers bill this client's tenant.
	apiKey string
}

// NewClient returns a client issuing attempts bounded by timeout, with up
// to retries same-node retries of transient failures. The seed fixes the
// backoff jitter stream (tests pass a constant; production can pass
// time.Now().UnixNano()).
func NewClient(timeout time.Duration, retries int, seed int64) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	if retries < 0 {
		retries = 0
	}
	return &Client{
		hc:          &http.Client{Transport: DefaultTransport(0)},
		timeout:     timeout,
		retries:     retries,
		backoffBase: 50 * time.Millisecond,
		backoffMax:  2 * time.Second,
		seed:        seed,
	}
}

// SetTransport replaces the client's HTTP transport — the seam the chaos
// harness injects through and the coordinator tunes pool width through.
// Nil restores DefaultTransport(0).
func (c *Client) SetTransport(rt http.RoundTripper) {
	if rt == nil {
		rt = DefaultTransport(0)
	}
	c.hc.Transport = rt
}

// SetAPIKey sets the tenant API key sent with every submit (empty:
// anonymous).
func (c *Client) SetAPIKey(key string) { c.apiKey = key }

// integrityFail counts and returns one failed verification.
func (c *Client) integrityFail(err error) error {
	if c.onIntegrity != nil {
		c.onIntegrity()
	}
	return err
}

// baseURL normalizes a peer address to a URL prefix.
func baseURL(node string) string {
	if strings.HasPrefix(node, "http://") || strings.HasPrefix(node, "https://") {
		return strings.TrimRight(node, "/")
	}
	return "http://" + node
}

// Submit posts req to node's POST /v1/jobs?wait=1 and returns the finished
// job record. Transient refusals (503/429) and transport errors are
// retried on the same node through the retry ladder, waiting the larger of
// the backoff step and the server's Retry-After; terminal refusals (4xx)
// and context cancellation return immediately.
func (c *Client) Submit(ctx context.Context, node string, req api.Request) (api.Record, error) {
	body, key, err := req.Encode()
	if err != nil {
		return api.Record{}, fmt.Errorf("cluster: encoding request: %w", err)
	}
	return c.submit(ctx, node, body, key)
}

// submit is Submit for a request already encoded by api.Request.Encode:
// body is its JSON and key its RouteKey.
func (c *Client) submit(ctx context.Context, node string, body []byte, key string) (api.Record, error) {
	var rec api.Record
	err := c.do(ctx, node, func(actx context.Context) error {
		rec = api.Record{}
		if err := c.postJSON(actx, node, "/v1/jobs?wait=1", body, key, &rec); err != nil {
			return err
		}
		// End-to-end verification: the transport and the node both said
		// 2xx, but the payload must also check out against its own hash
		// (see IntegrityError). A failure retries through the same ladder
		// as a transport fault.
		if err := verifyRecord(node, &rec); err != nil {
			return c.integrityFail(err)
		}
		return nil
	})
	return rec, err
}

// Health fetches node's GET /healthz.
func (c *Client) Health(ctx context.Context, node string) (api.Health, error) {
	var h api.Health
	// Health is a probe: no retry ladder, one bounded attempt. A draining
	// node answers 503 with a payload; surface both.
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	err := c.getJSON(actx, node, "/healthz", &h)
	return h, err
}

// Version fetches node's GET /version, retrying transient failures.
func (c *Client) Version(ctx context.Context, node string) (api.Version, error) {
	var v api.Version
	err := c.do(ctx, node, func(actx context.Context) error {
		return c.getJSON(actx, node, "/version", &v)
	})
	return v, err
}

// do runs attempt through the retry ladder with backoff. attempt receives
// a context bounded by the per-attempt timeout.
func (c *Client) do(ctx context.Context, node string, attempt func(context.Context) error) error {
	bo := sched.Backoff{
		Base:   c.backoffBase,
		Max:    c.backoffMax,
		Jitter: 0.5,
		Seed:   c.seed,
	}
	var last error
	jit := uint64(c.seed) ^ splitmix.Gamma
	sched.Ladder{MaxRetries: c.retries}.Run(ctx, func(n int) sched.Verdict {
		if n > 0 {
			// A retry was granted: wait out the backoff, stretched to the
			// server's Retry-After when it asked for more. The mandated wait
			// itself is stretched by up to 25% seeded jitter — many clients
			// refused in the same instant must not return in the same
			// instant, even against servers that send exact values.
			wait := bo.Next()
			var se *StatusError
			if asStatusError(last, &se) && se.RetryAfter > 0 {
				if ra := jitterStretch(se.RetryAfter, &jit); ra > wait {
					wait = ra
				}
			}
			if !sleepCtx(ctx, wait) {
				return sched.Done
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		last = attempt(actx)
		cancel()
		if last == nil {
			return sched.Done
		}
		if ctx.Err() != nil {
			return sched.Done
		}
		var se *StatusError
		if asStatusError(last, &se) && !se.Temporary() {
			return sched.Done // 4xx: retrying cannot help
		}
		return sched.Retry
	})
	return last
}

func asStatusError(err error, out **StatusError) bool {
	return errors.As(err, out)
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

func (c *Client) postJSON(ctx context.Context, node, path string, body []byte, key string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL(node)+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", node, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(api.ContentKeyHeader, key)
	}
	if c.apiKey != "" {
		req.Header.Set(api.APIKeyHeader, c.apiKey)
	}
	// Propagate the caller's span (if any) so the node's job spans join the
	// caller's trace — the cross-node half of `simctl trace`.
	if sc := tracing.FromContext(ctx).Context(); sc.Valid() {
		req.Header.Set(tracing.TraceparentHeader, sc.Traceparent())
	}
	return c.roundTrip(node, req, key, out)
}

func (c *Client) getJSON(ctx context.Context, node, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(node)+path, nil)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", node, err)
	}
	return c.roundTrip(node, req, "", out)
}

// roundTrip executes the request and decodes a 2xx JSON body into out. A
// non-2xx answer becomes a *StatusError carrying the server's error body
// and Retry-After. When a content key was sent, a 2xx reply that echoes a
// different key is a wrong-job reply and fails verification (nodes
// predating the header echo nothing, which passes).
func (c *Client) roundTrip(node string, req *http.Request, key string, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", node, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("cluster: %s: reading response: %w", node, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Node: node, Code: resp.StatusCode}
		var eb api.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			se.Message = eb.Error
		} else if len(raw) > 0 {
			se.Message = strings.TrimSpace(string(raw))
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return se
	}
	if key != "" {
		if echo := resp.Header.Get(api.ContentKeyHeader); echo != "" && echo != key {
			return c.integrityFail(&IntegrityError{
				Node:   node,
				Reason: fmt.Sprintf("wrong-job reply: sent content key %.12s…, node echoed %.12s…", key, echo),
			})
		}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("cluster: %s: decoding response: %w", node, err)
	}
	return nil
}
