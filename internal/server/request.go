package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"involution/internal/circuit"
	"involution/internal/netlist"
	"involution/internal/server/api"
	"involution/internal/signal"
)

// Request is one simulation job as submitted to POST /v1/jobs. The wire
// schema lives in internal/server/api so clients can import it without the
// execution engine; see api.Request for the field documentation.
type Request = api.Request

// compiled is a validated, canonicalized request ready to run.
type compiled struct {
	req     Request // canonical form; its JSON encoding is the cache key
	hash    string  // hex sha256 of the canonical JSON
	circuit *circuit.Circuit
	inputs  map[string]signal.Signal
	name    string // circuit name, for job records
}

func (c *compiled) deadline() time.Duration {
	return time.Duration(c.req.DeadlineMS) * time.Millisecond
}

// requestError is a client-side validation failure (HTTP 400).
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// compile validates the request and derives its canonical form: netlist
// text reformatted canonically, defaults made explicit, stimuli reparsed
// into canonical signal syntax with every input port present. The content
// hash is the SHA-256 of the canonical form's JSON encoding (struct field
// order is fixed and Go serializes maps in sorted key order, so the
// encoding is deterministic).
func (s *Server) compile(req Request) (*compiled, error) {
	c := &compiled{req: req}
	if (req.Netlist == "") == (req.Circuit == "") {
		return nil, badRequest("exactly one of netlist and circuit must be set")
	}
	if req.Horizon == 0 {
		c.req.Horizon = DefaultHorizon
	}
	if !(c.req.Horizon > 0) || math.IsInf(c.req.Horizon, 0) || math.IsNaN(c.req.Horizon) {
		return nil, badRequest("horizon %g must be positive and finite", c.req.Horizon)
	}
	if req.MaxEvents < 0 {
		return nil, badRequest("max_events %d must be non-negative", req.MaxEvents)
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest("deadline_ms %d must be non-negative", req.DeadlineMS)
	}

	switch {
	case req.Netlist != "":
		if req.Adversary != "" {
			return nil, badRequest("adversary applies to built-in circuits; netlists configure adversaries per channel")
		}
		nl, err := s.compileNetlist(req.Netlist)
		if err != nil {
			return nil, err
		}
		c.circuit = nl.circuit
		c.req.Netlist = nl.canon
	default:
		b, ok := s.builtin(req.Circuit)
		if !ok {
			return nil, badRequest("unknown built-in circuit %q (see /v1/circuits)", req.Circuit)
		}
		adv := req.Adversary
		if adv == "" && len(b.Adversaries) > 0 {
			adv = b.Adversaries[0]
		}
		if len(b.Adversaries) > 0 && !contains(b.Adversaries, adv) {
			return nil, badRequest("unknown adversary %q for circuit %q (want %s)",
				adv, b.Name, strings.Join(b.Adversaries, "|"))
		}
		cc, err := b.Build(adv, c.req.Seed)
		if err != nil {
			return nil, badRequest("building circuit %q: %v", b.Name, err)
		}
		c.circuit = cc
		c.req.Adversary = adv
	}
	c.name = c.circuit.Name

	// Canonical stimuli: every input port present, in canonical signal
	// syntax; unknown ports are rejected.
	ports := c.circuit.Inputs()
	c.req.Inputs = make(map[string]string, len(ports))
	c.inputs = make(map[string]signal.Signal, len(ports))
	for name, text := range req.Inputs {
		if !contains(ports, name) {
			return nil, badRequest("stimulus for unknown input port %q", name)
		}
		sig, err := signal.Parse(strings.TrimSpace(text))
		if err != nil {
			return nil, badRequest("stimulus %q: %v", name, err)
		}
		c.inputs[name] = sig
	}
	for _, name := range ports {
		if _, ok := c.inputs[name]; !ok {
			c.inputs[name] = signal.Zero()
		}
		c.req.Inputs[name] = c.inputs[name].String()
	}

	canon, err := json.Marshal(c.req)
	if err != nil {
		return nil, fmt.Errorf("server: canonical request encoding: %w", err)
	}
	sum := sha256.Sum256(canon)
	c.hash = hex.EncodeToString(sum[:])
	return c, nil
}

// compileNetlist parses, builds and canonically formats a netlist,
// memoized by its text: a campaign that resubmits one netlist with only
// the stimuli changing pays the compile once. A text that misses is still
// looked up by its canonical form after the parse, so every spelling of
// one netlist shares one built circuit. Only netlists that compiled are
// memoized, so a bad one is rejected afresh on every submit.
func (s *Server) compileNetlist(text string) (*compiledNetlist, error) {
	if nl, ok := s.netlists.get(text); ok {
		s.met.netlistHits.Inc()
		return nl, nil
	}
	doc, err := netlist.ParseDocument(strings.NewReader(text))
	if err != nil {
		s.met.netlistMisses.Inc()
		return nil, badRequest("%v", err)
	}
	canon := doc.String()
	nl, ok := s.netlists.get(canon)
	if ok {
		s.met.netlistHits.Inc()
	} else {
		s.met.netlistMisses.Inc()
		c, err := doc.Build()
		if err != nil {
			return nil, badRequest("%v", err)
		}
		nl = &compiledNetlist{circuit: c, canon: canon}
		s.netlists.put(canon, nl, int64(len(canon)))
	}
	if text != canon {
		s.netlists.put(text, nl, int64(len(text)))
	}
	return nl, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Builtin is a named circuit the server can simulate without a netlist.
type Builtin struct {
	// Name addresses the circuit in Request.Circuit.
	Name string `json:"name"`
	// Desc is a one-line description for GET /v1/circuits.
	Desc string `json:"desc"`
	// Adversaries lists the accepted Request.Adversary values (the first
	// is the default); empty means the adversary field is ignored.
	Adversaries []string `json:"adversaries,omitempty"`
	// Build constructs the circuit for one run. It must be deterministic
	// in (adv, seed): the pair is part of the request's content hash.
	Build func(adv string, seed int64) (*circuit.Circuit, error) `json:"-"`
}

// RegisterBuiltin adds (or replaces) a built-in circuit. The default
// registry holds the Fig. 5 SPF circuit; tests register hostile designs
// through the same door.
func (s *Server) RegisterBuiltin(b Builtin) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, old := range s.builtins {
		if old.Name == b.Name {
			s.builtins[i] = b
			return
		}
	}
	s.builtins = append(s.builtins, b)
	sort.Slice(s.builtins, func(i, j int) bool { return s.builtins[i].Name < s.builtins[j].Name })
}

func (s *Server) builtin(name string) (Builtin, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.builtins {
		if b.Name == name {
			return b, true
		}
	}
	return Builtin{}, false
}

func (s *Server) builtinList() []Builtin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Builtin(nil), s.builtins...)
}
