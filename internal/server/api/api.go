// Package api holds the wire types of the simd HTTP/NDJSON protocol —
// the request, job-record and result-payload schemas exchanged with
// POST /v1/jobs and friends — extracted from the server so that clients
// (internal/cluster, cmd/simctl) can speak the protocol without linking
// the execution engine. Package server aliases these types, so the wire
// protocol is defined in exactly one place.
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"involution/internal/sim"
)

// ContentKeyHeader carries the client's content key (Request.RouteKey) on
// submits; the server echoes it on the response, letting the client detect
// a wrong-job reply (a response that is a well-formed record for some
// *other* request) without trusting the transport.
const ContentKeyHeader = "X-Content-Key"

// APIKeyHeader carries the tenant's API key on submits. The server also
// accepts the key as an "Authorization: Bearer <key>" header; requests
// with neither are the anonymous tenant.
const APIKeyHeader = "X-Api-Key"

// DeadlineHeader carries the client's end-to-end deadline budget in
// milliseconds. It rides in a header — not in Request — so a tight or
// generous deadline does not change the content hash: the cached result of
// a patient client still answers an impatient one. A server that cannot
// plausibly start the job inside the budget (estimated queue wait exceeds
// it) sheds the submit with 503 instead of accepting work it will finish
// too late to matter.
const DeadlineHeader = "X-Deadline-Ms"

// Cache tiers reported in Record.CacheTier.
const (
	// TierMem marks a hit served by the in-process RAM LRU.
	TierMem = "mem"
	// TierLake marks a hit served by the persistent result lake — a
	// result that may predate the serving process.
	TierLake = "lake"
)

// Status is a job's lifecycle state.
type Status string

// Job statuses.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusAborted   Status = "aborted"
)

// Request is one simulation job as submitted to POST /v1/jobs. Exactly one
// of Netlist and Circuit selects the design; everything else parametrizes
// the run.
type Request struct {
	// Netlist is the design in the text netlist format (see package
	// netlist). It is canonicalized (netlist.Format) before hashing, so
	// formatting differences do not defeat the result cache.
	Netlist string `json:"netlist,omitempty"`
	// Circuit names a built-in circuit (see GET /v1/circuits) instead of a
	// netlist.
	Circuit string `json:"circuit,omitempty"`
	// Adversary selects the η adversary for built-in circuits
	// (zero|worst|maxup|uniform). Netlist designs configure adversaries per
	// channel instead.
	Adversary string `json:"adversary,omitempty"`
	// Seed derives every random stream of the run (built-in adversary
	// rngs); identical seeded requests are deterministic cache hits.
	Seed int64 `json:"seed,omitempty"`
	// Inputs maps input-port names to stimulus signals in the signal
	// syntax ("0 r@1 f@2.5"). Unmentioned ports default to constant zero.
	Inputs map[string]string `json:"inputs,omitempty"`
	// Horizon bounds simulated time (default 100).
	Horizon float64 `json:"horizon,omitempty"`
	// MaxEvents caps delivered events (0: the simulator default).
	MaxEvents int `json:"max_events,omitempty"`
	// DeadlineMS bounds the run's wall-clock time in milliseconds (0:
	// none). Deadline-dependent outcomes are never cached.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// RouteKey returns the client-side content key of the request: the hex
// SHA-256 of its JSON encoding (field order is fixed and Go serializes
// maps in sorted key order, so the encoding is deterministic). The server
// computes its own canonical hash after validation; RouteKey only needs to
// be stable for identical requests, which is what consistent-hash routing
// requires — repeat sweeps produce the same keys and land on the nodes
// that already hold the cached results.
func (r Request) RouteKey() string {
	raw, err := json.Marshal(r)
	if err != nil {
		// Marshal fails only on a non-finite Horizon, which every node
		// refuses anyway. Keep a deterministic key for it.
		raw = []byte(err.Error())
	}
	return routeKeyOf(raw)
}

// Encode returns the request's JSON body and its RouteKey from one
// marshal — what a client needs to route and send a request. It fails
// only on a non-finite Horizon.
func (r Request) Encode() (body []byte, key string, err error) {
	body, err = json.Marshal(r)
	if err != nil {
		return nil, "", err
	}
	return body, routeKeyOf(body), nil
}

func routeKeyOf(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Record is the externally visible state of one job: what GET
// /v1/jobs/{id} returns and what the server flushes on drain.
type Record struct {
	// ID addresses the job under /v1/jobs/{id}.
	ID string `json:"id"`
	// Circuit is the simulated circuit's name.
	Circuit string `json:"circuit"`
	// Hash is the canonical request's content hash — the result-cache key.
	Hash string `json:"hash"`
	// Status is the lifecycle state (queued|running|completed|aborted).
	Status Status `json:"status"`
	// Class is the sim abort class for aborted jobs (budget, deadline,
	// panic, bad-time, canceled, …).
	Class string `json:"class,omitempty"`
	// Error describes the abort cause for aborted jobs.
	Error string `json:"error,omitempty"`
	// Cached marks a job answered from the result cache without running.
	Cached bool `json:"cached,omitempty"`
	// CacheTier names the tier that answered a cached job: TierMem (the
	// RAM LRU) or TierLake (the persistent result lake). Coordinators use
	// it to count cross-campaign dedups — a lake hit means the result
	// predates this node's current process.
	CacheTier string `json:"cache_tier,omitempty"`
	// Trace marks a job recording a live event trace
	// (/v1/jobs/{id}/trace).
	Trace bool `json:"trace,omitempty"`
	// TraceID is the distributed-trace identifier of the job's span tree —
	// the key for `simctl trace` and GET /debug/jobs. Set when the serving
	// node's flight recorder is enabled; inherited from the submit's
	// traceparent header when one was sent.
	TraceID string `json:"trace_id,omitempty"`
	// Submitted/Started/Finished are the lifecycle timestamps.
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Result is the run's outcome payload (see ResultPayload), present
	// once the job finished.
	Result json.RawMessage `json:"result,omitempty"`
	// ResultHash is the hex SHA-256 of the canonical (compacted) Result
	// bytes, stamped by the serving node when the result is produced.
	// Clients recompute it on receipt; a mismatch means the payload was
	// corrupted in flight or by a lying intermediary and the exchange must
	// be retried. Nodes send Result as the compact bytes they hashed, so
	// the received bytes hash to ResultHash as they are; a whitespace-only
	// re-encoding (a node that pretty-prints) still verifies once the
	// client compacts it.
	ResultHash string `json:"result_hash,omitempty"`
}

// ResultHashOf returns the integrity hash of a result payload: the hex
// SHA-256 of its compacted JSON encoding. Compacting first makes the hash
// stable across re-indenting encoders on the wire path. Invalid JSON
// returns "".
func ResultHashOf(raw json.RawMessage) string {
	if len(raw) == 0 {
		return ""
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return ""
	}
	return ResultHashOfCompact(buf.Bytes())
}

// ResultHashOfCompact is ResultHashOf for bytes known to be compact JSON,
// such as json.Marshal output: compacting them is the identity, so it
// hashes them as they are. It does not check that raw is JSON. Empty
// returns "".
func ResultHashOfCompact(raw json.RawMessage) string {
	if len(raw) == 0 {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// ResultPayload is the Record.Result schema. For completed jobs the
// wall-clock stats.duration_ns is scrubbed to zero so the payload depends
// only on the canonical request — the property that makes cache hits
// byte-identical; wall-clock latency lives in the record's timestamps and
// the simd_job_latency_seconds histogram instead. Aborted jobs keep their
// real partial stats (they are never cached).
type ResultPayload struct {
	// Status is "completed" or "aborted".
	Status Status `json:"status"`
	// Class/Error describe the abort (aborted jobs only).
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
	// ExitCode is the shared sim.ExitCode mapping of the outcome, so
	// scripted clients can reuse the CLI exit-code contract.
	ExitCode int `json:"exit_code"`
	// Events is the number of delivered events (completed jobs).
	Events int `json:"events,omitempty"`
	// Horizon echoes the simulated horizon.
	Horizon float64 `json:"horizon"`
	// Outputs maps output-port names to their recorded signals in the
	// canonical signal syntax (completed jobs).
	Outputs map[string]string `json:"outputs,omitempty"`
	// Stats is the execution profile — partial for aborted jobs.
	Stats sim.RunStats `json:"stats"`
}

// Health is the GET /healthz payload.
type Health struct {
	// Status is "ok", or "draining" while the server shuts down (served
	// with HTTP 503).
	Status string `json:"status"`
	// Advertise is the address the node believes it serves on (the simd
	// -advertise flag); coordinators verify it against the address they
	// routed to. Empty when the node was not told its address.
	Advertise string `json:"advertise,omitempty"`
	// Queue is the number of jobs waiting for a worker.
	Queue int `json:"queue"`
	// Running is the number of jobs currently executing.
	Running int `json:"running"`
	// Width is the node's worker count: the pool runs that many jobs at
	// once. Zero when the node predates width reporting.
	Width int `json:"width,omitempty"`
	// Shed counts capacity refusals (503: queue full, deadline infeasible,
	// disconnected-while-queued) since start.
	Shed int64 `json:"shed,omitempty"`
	// Throttled counts quota refusals (429: rate, event budget) since
	// start.
	Throttled int64 `json:"throttled,omitempty"`
}

// Version is the GET /version payload. GoVersion/GOOS/GOARCH mirror the
// build_info metric labels so both machine paths report the same identity.
type Version struct {
	Service string `json:"service"`
	Version string `json:"version"`
	// Advertise mirrors Health.Advertise.
	Advertise string `json:"advertise,omitempty"`
	// GoVersion is the toolchain that built the serving binary.
	GoVersion string `json:"go_version,omitempty"`
	// GOOS/GOARCH are the serving binary's platform.
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
}

// ErrorBody is the JSON error envelope of non-2xx responses.
type ErrorBody struct {
	Error string `json:"error"`
}
