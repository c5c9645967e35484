package involution_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"involution/internal/circuit"
	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/server"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the hash pins of testdata/golden from the current code")

// goldenCase is one file of testdata/golden: a simd request, optionally
// with in-process extras the wire protocol cannot express (a wrapper or
// overlay fault, a watch monitor, a delta-round cap), pinned to the hash
// of its result payload.
type goldenCase struct {
	About   string       `json:"about"`
	Request api.Request  `json:"request"`
	Fault   *goldenFault `json:"fault,omitempty"`
	Watch   *goldenWatch `json:"watch,omitempty"`
	// MaxDeltas sets sim.Options.MaxDeltas (0: the default).
	MaxDeltas int `json:"max_deltas,omitempty"`
	// Hash is the canonical request hash a node reports (server rungs).
	Hash string `json:"hash,omitempty"`
	// ResultHash is api.ResultHashOf the result payload with
	// stats.duration_ns zeroed (completed payloads already carry zero, so
	// for them it is the record's own result_hash).
	ResultHash string `json:"result_hash"`
}

// goldenFault injects one fault model at the edge from→to/pin.
type goldenFault struct {
	Kind  string  `json:"kind"` // dup | pushout | set | stuck
	From  string  `json:"from"`
	To    string  `json:"to"`
	Pin   int     `json:"pin"`
	At    float64 `json:"at,omitempty"`    // set: strike time; stuck: onset
	Gap   float64 `json:"gap,omitempty"`   // dup
	Width float64 `json:"width,omitempty"` // dup, set
	Up    float64 `json:"up,omitempty"`    // pushout
	Down  float64 `json:"down,omitempty"`  // pushout
	Value int     `json:"value,omitempty"` // stuck
}

type goldenWatch struct {
	Node     string  `json:"node"`
	MinPulse float64 `json:"min_pulse"`
}

// TestGoldenCorpus pins simulator output: every case's result payload —
// outputs plus every RunStats field — must hash to its pin on each rung
// that can run it: direct sim.Run, server.RunOne, and the HTTP handler.
// Regenerate the pins (only for an intended change of output) with
//
//	go test -run TestGoldenCorpus -update-golden .
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 30 {
		t.Fatalf("golden corpus has %d cases, want ≥ 30", len(files))
	}
	sort.Strings(files)
	direct := server.New(server.Config{Workers: 1, FlightOff: true})
	wire := server.New(server.Config{Workers: 1, FlightOff: true})
	t.Cleanup(func() {
		direct.Drain(5 * time.Second)
		wire.Drain(5 * time.Second)
	})
	h := wire.Handler()
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var gc goldenCase
			if err := json.Unmarshal(raw, &gc); err != nil {
				t.Fatal(err)
			}
			got := goldenDirect(t, &gc)
			var hash string
			if gc.Fault == nil && gc.Watch == nil && gc.MaxDeltas == 0 {
				// No in-process extras: the case can go over the wire.
				rec, err := direct.RunOne(context.Background(), gc.Request)
				if err != nil {
					t.Fatal(err)
				}
				viaRunOne := scrubbedHash(t, rec)
				viaHTTP := scrubbedHash(t, postJob(t, h, gc.Request))
				if viaRunOne != got || viaHTTP != got {
					t.Fatalf("rungs disagree: sim.Run %s, RunOne %s, HTTP %s", got, viaRunOne, viaHTTP)
				}
				hash = rec.Hash
			}
			if *updateGolden {
				gc.ResultHash, gc.Hash = got, hash
				out, err := json.MarshalIndent(&gc, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if got != gc.ResultHash {
				t.Errorf("result hash %s, pinned %s", got, gc.ResultHash)
			}
			if hash != gc.Hash {
				t.Errorf("request hash %s, pinned %s", hash, gc.Hash)
			}
		})
	}
}

// postJob submits the request to the handler and waits for its record.
func postJob(t *testing.T, h http.Handler, req api.Request) api.Record {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/jobs: %d %s", w.Code, w.Body.String())
	}
	var rec api.Record
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// scrubbedHash checks a record's own result hash and returns the hash of
// its payload with the wall-clock duration zeroed.
func scrubbedHash(t *testing.T, rec api.Record) string {
	t.Helper()
	if api.ResultHashOf(rec.Result) != rec.ResultHash {
		t.Fatalf("record result_hash %s does not match its payload", rec.ResultHash)
	}
	var p api.ResultPayload
	if err := json.Unmarshal(rec.Result, &p); err != nil {
		t.Fatal(err)
	}
	h := payloadHash(t, p)
	if p.Status == api.StatusCompleted && h != rec.ResultHash {
		t.Fatalf("completed payload re-encodes to %s, record says %s", h, rec.ResultHash)
	}
	return h
}

func payloadHash(t *testing.T, p api.ResultPayload) string {
	t.Helper()
	p.Stats.Duration = 0
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return api.ResultHashOf(raw)
}

// goldenDirect compiles the case the way a node does, applies its
// in-process extras, runs sim.Run and hashes the payload a node would
// build from the outcome.
func goldenDirect(t *testing.T, gc *goldenCase) string {
	t.Helper()
	req := gc.Request
	var c *circuit.Circuit
	var err error
	if req.Circuit != "" {
		doc, _, derr := experiments.SPFNetlist(req.Adversary, req.Seed)
		if derr != nil {
			t.Fatal(derr)
		}
		c, err = doc.Build()
	} else {
		c, err = netlist.Parse(strings.NewReader(req.Netlist))
	}
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]signal.Signal{}
	for _, name := range c.Inputs() {
		inputs[name] = signal.Zero()
		if text, ok := req.Inputs[name]; ok {
			if inputs[name], err = signal.Parse(strings.TrimSpace(text)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f := gc.Fault; f != nil {
		var m fault.Model
		switch f.Kind {
		case "dup":
			m = fault.Dup{Gap: f.Gap, Width: f.Width}
		case "pushout":
			m = fault.DelayPushout{DUp: f.Up, DDown: f.Down}
		case "set":
			m = fault.SET{At: f.At, Width: f.Width}
		case "stuck":
			m = fault.StuckAt{V: signal.Value(f.Value), From: f.At}
		default:
			t.Fatalf("unknown fault kind %q", f.Kind)
		}
		site := fault.Site{From: f.From, To: f.To, Pin: f.Pin, Channel: true}
		if c, inputs, err = m.Instrument(c, site, inputs, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
	}
	opts := sim.Options{Horizon: req.Horizon, MaxEvents: req.MaxEvents, MaxDeltas: gc.MaxDeltas}
	if w := gc.Watch; w != nil {
		opts.Watch = map[string]sim.Monitor{w.Node: sim.MinPulseMonitor(w.MinPulse)}
	}
	res, err := sim.Run(c, inputs, opts)
	p := api.ResultPayload{Status: api.StatusCompleted, Horizon: req.Horizon}
	var ab *sim.AbortError
	switch {
	case err == nil:
		p.Events, p.Stats = res.Events, res.Stats
		p.Outputs = map[string]string{}
		for _, name := range c.Outputs() {
			p.Outputs[name] = res.Signals[name].String()
		}
	case errors.As(err, &ab):
		p.Status, p.Class, p.Error = api.StatusAborted, string(ab.Class()), ab.Error()
		p.ExitCode, p.Stats = sim.ExitCode(ab.Class()), ab.Stats
	default:
		t.Fatal(err)
	}
	return payloadHash(t, p)
}
