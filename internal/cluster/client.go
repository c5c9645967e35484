package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"involution/internal/obs/tracing"
	"involution/internal/server/api"
)

// StatusError is a non-2xx simd response: the node answered, but refused.
// The split between retryable (503 overload, 429) and terminal (400 bad
// request, …) drives the coordinator's retry ladder.
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

// Temporary reports whether the refusal is worth retrying: overload and
// draining (503) and throttling (429) pass; client errors do not.
func (e *StatusError) Temporary() bool {
	return e.Code == http.StatusServiceUnavailable || e.Code == http.StatusTooManyRequests
}

// Client is a typed simd protocol client for one logical fleet. It speaks
// to base addresses ("host:port" or "http://host:port") and makes exactly
// one attempt per call: every retry and wait belongs to the coordinator's
// ladder. The zero value is not usable; use NewClient.
type Client struct {
	hc *http.Client
	// timeout bounds each submit.
	timeout time.Duration
	// apiKey, when set, rides every submit as the X-Api-Key header so the
	// fleet's admission controllers bill this client's tenant.
	apiKey string
	// onIntegrity, when set, is called once per failed end-to-end record
	// verification (the coordinator counts these in
	// cluster_integrity_failures_total).
	onIntegrity func()
}

// NewClient returns a client whose submits are bounded by timeout, sent
// through rt (nil: DefaultTransport(0)) — the seam the chaos harness
// injects through — and billed to the tenant apiKey (empty: anonymous).
func NewClient(timeout time.Duration, rt http.RoundTripper, apiKey string) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	if rt == nil {
		rt = DefaultTransport(0)
	}
	return &Client{hc: &http.Client{Transport: rt}, timeout: timeout, apiKey: apiKey}
}

// integrityFail counts and returns one failed verification.
func (c *Client) integrityFail(err error) error {
	if c.onIntegrity != nil {
		c.onIntegrity()
	}
	return err
}

// BaseURL normalizes a peer address ("host:port" or "http://host:port/")
// to a URL prefix. It is the one place a simd address becomes a URL.
func BaseURL(node string) string {
	if strings.HasPrefix(node, "http://") || strings.HasPrefix(node, "https://") {
		return strings.TrimRight(node, "/")
	}
	return "http://" + node
}

// submit posts a request already encoded by api.Request.Encode (body is
// its JSON, key its RouteKey) to node's POST /v1/jobs?wait=1 and returns
// the finished job record. Refusals come back as *StatusError, a record
// failing end-to-end verification as *IntegrityError.
func (c *Client) submit(ctx context.Context, node string, body []byte, key string) (api.Record, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, BaseURL(node)+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return api.Record{}, fmt.Errorf("cluster: %s: %w", node, err)
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
	raw, err := c.roundTrip(node, req, key)
	if err != nil {
		return api.Record{}, err
	}
	var rec api.Record
	if err := decode(node, raw, &rec); err != nil {
		return api.Record{}, err
	}
	// The transport and the node both said 2xx, but the payload must also
	// check out against its own hash (see IntegrityError).
	if err := verifyRecord(node, &rec); err != nil {
		return api.Record{}, c.integrityFail(err)
	}
	return rec, nil
}

// Health fetches node's GET /healthz, bounded by ctx alone. A draining
// node answers 503 with its snapshot: Health returns that snapshot
// (Status "draining") together with the *StatusError.
func (c *Client) Health(ctx context.Context, node string) (api.Health, error) {
	var h api.Health
	raw, err := c.get(ctx, node, "/healthz")
	if err == nil {
		err = decode(node, raw, &h)
	} else {
		json.Unmarshal(raw, &h) // err reports the failure; only a 503 body fills h
	}
	return h, err
}

// DebugJobs fetches node's flight-recorder entries: GET /debug/jobs with
// query ("?trace=<id>", "?hash=<hex>" or "?n=<rows>"), one JSON entry per
// line, bounded by ctx alone.
func (c *Client) DebugJobs(ctx context.Context, node, query string) ([]tracing.JobEntry, error) {
	raw, err := c.get(ctx, node, "/debug/jobs"+query)
	if err != nil {
		return nil, err
	}
	var out []tracing.JobEntry
	for dec := json.NewDecoder(bytes.NewReader(raw)); ; {
		var e tracing.JobEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("cluster: %s: decoding /debug/jobs: %w", node, err)
		}
		out = append(out, e)
	}
}

// get fetches node's GET path and returns the raw body.
func (c *Client) get(ctx context.Context, node, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, BaseURL(node)+path, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", node, err)
	}
	return c.roundTrip(node, req, "")
}

func decode(node string, raw []byte, out any) error {
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("cluster: %s: decoding response: %w", node, err)
	}
	return nil
}

// roundTrip executes the request and returns the body. A non-2xx answer
// becomes a *StatusError carrying the server's error body and
// Retry-After; the body is returned alongside it. When a content key was
// sent, a 2xx reply that echoes a different key is a wrong-job reply and
// fails verification (nodes predating the header echo nothing, which
// passes).
func (c *Client) roundTrip(node string, req *http.Request, key string) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", node, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: reading response: %w", node, err)
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
		return raw, se
	}
	if key != "" {
		if echo := resp.Header.Get(api.ContentKeyHeader); echo != "" && echo != key {
			return nil, c.integrityFail(&IntegrityError{
				Node:   node,
				Reason: fmt.Sprintf("wrong-job reply: sent content key %.12s…, node echoed %.12s…", key, echo),
			})
		}
	}
	return raw, nil
}
