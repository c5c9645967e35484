// Package chaos injects seeded, reproducible faults into the cluster's
// transport fabric — the adversarial-noise idea of the paper turned inward
// on the infrastructure that serves it. A declarative Schedule describes
// which faults strike which nodes with what probability inside which time
// windows; Transport applies it client-side as an http.RoundTripper
// wrapped around cluster.Client's real transport.
//
// Determinism: every injection decision is a pure function of
// (schedule seed, rule index, request identity, occurrence number), where
// the request identity is method|host|path|body-hash and the occurrence
// number counts how many times that identical request has been seen. Two
// runs with the same schedule against the same request sequence therefore
// inject the same faults, which is what makes a chaos scenario replayable
// and a failure under chaos debuggable. (Concurrent duplicates of the same
// request — hedges — race for occurrence numbers; everything else is
// schedule-order independent.)
//
// The faults deliberately model lying and half-dead networks, not polite
// ones: beyond clean 5xx refusals there are connection resets, stalls that
// eat the request until the deadline, truncated response bodies, and
// bit-corrupted (but often still JSON-parseable) payloads — the cases that
// only end-to-end result integrity (api.Record.ResultHash) can catch.
package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"time"

	"involution/internal/splitmix"
)

// Fault kinds a Rule can inject.
const (
	// FaultLatency adds LatencyMS of delay before the request proceeds.
	FaultLatency = "latency"
	// FaultReset fails the exchange with a connection-reset transport error
	// without reaching the server.
	FaultReset = "reset"
	// FaultStall holds the request for LatencyMS (a half-dead peer that
	// accepts the connection and then goes quiet), then resets it.
	FaultStall = "stall"
	// FaultStatus synthesizes an HTTP refusal (Status, default 503) without
	// reaching the server.
	FaultStatus = "status"
	// FaultTruncate performs the real exchange but cuts the response body
	// short, ending it with an unexpected-EOF read error.
	FaultTruncate = "truncate"
	// FaultCorrupt performs the real exchange but flips Flips response-body
	// bytes alnum→alnum, so the payload often stays well-formed JSON with
	// silently wrong content — the case integrity hashes exist for.
	FaultCorrupt = "corrupt"
	// FaultPartition refuses every matching exchange (connection refused);
	// probability defaults to 1, so a rule with a window models a clean
	// network partition of the matched nodes.
	FaultPartition = "partition"
)

// Rule is one fault clause of a Schedule.
type Rule struct {
	// Fault selects the fault kind (see the Fault* constants).
	Fault string `json:"fault"`
	// P is the injection probability per matching exchange in [0,1].
	// Zero defaults to 1 for partition rules and 0.2 for everything else.
	P float64 `json:"p,omitempty"`
	// Nodes restricts the rule to exchanges with these hosts ("host:port";
	// empty: every node).
	Nodes []string `json:"nodes,omitempty"`
	// Path restricts the rule to request paths with this prefix (empty:
	// every path).
	Path string `json:"path,omitempty"`
	// StartMS/EndMS bound the rule to a wall-clock window measured from
	// transport creation (both zero: always active; EndMS zero with
	// StartMS set: active from StartMS forever).
	StartMS int64 `json:"start_ms,omitempty"`
	EndMS   int64 `json:"end_ms,omitempty"`
	// LatencyMS parametrizes latency and stall faults (default 25).
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// Status is the synthesized refusal code for status faults (default 503).
	Status int `json:"status,omitempty"`
	// RetryAfter, when > 0, adds a Retry-After header (seconds) to
	// synthesized status refusals.
	RetryAfter int `json:"retry_after,omitempty"`
	// Burst makes a fired rule stay fired for that many further consecutive
	// occurrences of the same request identity (default 0: single shots) —
	// 5xx bursts and flappy links.
	Burst int `json:"burst,omitempty"`
	// Flips is the number of bytes a corrupt fault mutates (default 3).
	Flips int `json:"flips,omitempty"`
}

// prob returns the rule's effective probability.
func (r Rule) prob() float64 {
	if r.P > 0 {
		return r.P
	}
	if r.Fault == FaultPartition {
		return 1
	}
	return 0.2
}

// latency returns the rule's effective delay.
func (r Rule) latency() time.Duration {
	if r.LatencyMS > 0 {
		return time.Duration(r.LatencyMS) * time.Millisecond
	}
	return 25 * time.Millisecond
}

// status returns the rule's effective refusal code.
func (r Rule) status() int {
	if r.Status > 0 {
		return r.Status
	}
	return 503
}

// flips returns the rule's effective corruption byte count.
func (r Rule) flips() int {
	if r.Flips > 0 {
		return r.Flips
	}
	return 3
}

// matches reports whether the rule applies to an exchange with host at
// path, elapsed into the run.
func (r Rule) matches(host, path string, elapsed time.Duration) bool {
	ms := elapsed.Milliseconds()
	if ms < r.StartMS {
		return false
	}
	if r.EndMS > 0 && ms >= r.EndMS {
		return false
	}
	if r.Path != "" && !strings.HasPrefix(path, r.Path) {
		return false
	}
	if len(r.Nodes) == 0 {
		return true
	}
	for _, n := range r.Nodes {
		if n == host {
			return true
		}
	}
	return false
}

// validate rejects rules the injectors cannot interpret.
func (r Rule) validate(i int) error {
	switch r.Fault {
	case FaultLatency, FaultReset, FaultStall, FaultStatus, FaultTruncate, FaultCorrupt, FaultPartition:
	default:
		return fmt.Errorf("chaos: rule %d: unknown fault %q", i, r.Fault)
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("chaos: rule %d: probability %v outside [0,1]", i, r.P)
	}
	if r.EndMS > 0 && r.EndMS < r.StartMS {
		return fmt.Errorf("chaos: rule %d: window ends (%dms) before it starts (%dms)", i, r.EndMS, r.StartMS)
	}
	if r.Status != 0 && (r.Status < 400 || r.Status > 599) {
		return fmt.Errorf("chaos: rule %d: status %d is not an HTTP error code", i, r.Status)
	}
	return nil
}

// Schedule is a declarative chaos scenario: a seed fixing every injection
// decision and the fault rules evaluated, in order, against each exchange.
// Every matching rule gets an independent draw, so one request can suffer
// latency and corruption at once.
type Schedule struct {
	// Name labels the scenario in logs and reports.
	Name string `json:"name,omitempty"`
	// Seed fixes the decision and mutation streams.
	Seed int64 `json:"seed"`
	// Rules are the fault clauses, evaluated in order.
	Rules []Rule `json:"rules"`
}

// Validate checks every rule.
func (s *Schedule) Validate() error {
	if len(s.Rules) == 0 {
		return fmt.Errorf("chaos: schedule %q has no rules", s.Name)
	}
	for i, r := range s.Rules {
		if err := r.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParseSchedule decodes and validates a JSON schedule.
func ParseSchedule(r io.Reader) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: parsing schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSchedule reads a schedule from a JSON file.
func LoadSchedule(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ParseSchedule(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Generate builds the k-th reference soak schedule for a seed: a fixed
// rotation of fault mixes so `simctl chaos-soak` exercises slow (latency +
// 5xx bursts), lying (corruption + truncation) and half-dead (resets +
// stalls) networks without hand-written schedule files. Every generated
// mix includes corruption, so integrity verification is always exercised.
func Generate(seed int64, k int, peers []string) *Schedule {
	base := seed + int64(k)*0x9E3779B9
	// Bounded blast radius: refusing faults (status, reset, stall) strike
	// a strict subset of the fleet, so every shard keeps a refusal-free
	// reschedule path and the byte-identity guarantee is structural, not
	// probabilistic. (A burst rule with no node filter covers so much of
	// each identity's occurrence stream that some unlucky streams refuse
	// 11+ consecutive dispatches and legitimately exhaust the ladder — no
	// system can serve an adversary that kills every path.) Body faults
	// (corrupt, truncate) stay fleet-wide: integrity verification turns
	// them into independent per-try coin flips, which retries always
	// outlast. With fewer than two peers there is no subset to spare, so
	// refusing faults stay fleet-wide at low, burst-free probabilities.
	var victims []string
	if len(peers) >= 2 {
		victims = append(victims, peers[k%len(peers)])
	}
	refusalP := 0.25
	burst := 2
	if victims == nil {
		refusalP = 0.1
		burst = 0
	}
	common := []Rule{
		{Fault: FaultCorrupt, P: 0.35, Path: "/v1/jobs"},
		{Fault: FaultLatency, P: 0.3, LatencyMS: 5},
	}
	mixes := [][]Rule{
		{{Fault: FaultStatus, P: refusalP, Burst: burst, Nodes: victims}, {Fault: FaultTruncate, P: 0.2, Path: "/v1/jobs"}},
		{{Fault: FaultReset, P: refusalP, Nodes: victims}, {Fault: FaultTruncate, P: 0.25, Path: "/v1/jobs"}},
		{{Fault: FaultStall, P: refusalP, LatencyMS: 40, Nodes: victims}, {Fault: FaultStatus, P: refusalP, Status: 503, Nodes: victims}},
	}
	s := &Schedule{
		Name: fmt.Sprintf("soak-%d", k),
		Seed: base,
	}
	s.Rules = append(s.Rules, common...)
	s.Rules = append(s.Rules, mixes[k%len(mixes)]...)
	return s
}

// decide draws the deterministic injection verdict for rule idx against
// occurrence occ of the request identity key. The draw is a splitmix64 of
// the mixed inputs mapped to [0,1).
func (s *Schedule) decide(idx int, key string, occ uint64) bool {
	return unit(s.mix(idx, key, occ)) < s.Rules[idx].prob()
}

// mix folds (seed, rule, key, occurrence) into one splitmix64 state.
func (s *Schedule) mix(idx int, key string, occ uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	x := uint64(s.Seed) ^ h.Sum64() ^ (uint64(idx+1) * splitmix.Gamma) ^ (occ * 0xBF58476D1CE4E5B9)
	return splitmix.Mix(x + splitmix.Gamma)
}

// unit maps a 64-bit state to [0,1).
func unit(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}

// corrupt deterministically mutates up to flips alnum bytes of body in
// place, preserving character class (digit→digit, letter→letter of the
// same case) so JSON structure usually survives and the corruption must be
// caught by content hashing, not by the parser. The mutation stream
// derives from state, so a replayed run corrupts identically.
func corrupt(body []byte, state uint64, flips int) []byte {
	var alnum []int
	for i, b := range body {
		if b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' {
			alnum = append(alnum, i)
		}
	}
	if len(alnum) == 0 {
		return body
	}
	for n := 0; n < flips; n++ {
		state = splitmix.Mix(state + splitmix.Gamma)
		i := alnum[int(state%uint64(len(alnum)))]
		state = splitmix.Mix(state + splitmix.Gamma)
		step := byte(1 + state%9)
		switch b := body[i]; {
		case b >= '0' && b <= '9':
			body[i] = '0' + (b-'0'+step)%10
		case b >= 'a' && b <= 'z':
			body[i] = 'a' + (b-'a'+step)%26
		default:
			body[i] = 'A' + (b-'A'+step)%26
		}
	}
	return body
}
