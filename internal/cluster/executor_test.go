package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/server"
	"involution/internal/signal"
	"involution/internal/sim"
)

const pipeNetlist = `circuit pipe
input i
output o
gate b1 BUF init=0
gate b2 BUF init=0
channel i b1 0 pure d=1
channel b1 b2 0 pure d=1
channel b2 o 0 zero
`

// pipelineCampaign builds the netlist-backed pipeline campaign plus a grid
// mixing overlay scenarios (remotable) and wrapper scenarios (local
// fallback).
func pipelineCampaign(t *testing.T) (*fault.Campaign, []fault.Scenario, *netlist.Document) {
	t.Helper()
	doc, err := netlist.ParseDocument(strings.NewReader(pipeNetlist))
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	c, err := doc.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	camp := &fault.Campaign{
		Circuit: c,
		Inputs:  map[string]signal.Signal{"i": signal.MustPulse(1, 4)},
		Horizon: 20,
		Seed:    42,
	}
	models := []fault.Model{
		fault.SET{At: 10, Width: 0.5},
		fault.SET{At: 100, Width: 0.5},
		fault.SET{At: 8, Width: 0.5, Jitter: 2},
		fault.StuckAt{V: signal.High, From: 0},
		fault.StuckAt{V: signal.Low, From: 0},
		fault.Drop{From: 0, Count: 1},
		fault.DelayPushout{DUp: 0.5, DDown: 0.5},
	}
	return camp, fault.Grid(fault.Sites(c), models), doc
}

func remoteEngine(t *testing.T, camp *fault.Campaign, doc *netlist.Document, peers int) *fault.Engine {
	t.Helper()
	addrs := make([]string, peers)
	for i := range addrs {
		addrs[i] = startNode(t, server.Config{})
	}
	coord := newTestCoordinator(t, Options{Peers: addrs})
	exec := &CampaignExecutor{Coord: coord, Doc: doc, Inputs: camp.Inputs}
	return &fault.Engine{Campaign: camp, Opts: fault.Options{Workers: 4, Executor: exec}}
}

// TestExecutorRemoteMatchesLocal is the remote-parity contract: a campaign
// run through the fleet classifies every scenario exactly as the local
// engine does — overlay faults remotely, wrapper faults via the
// transparent local fallback.
func TestExecutorRemoteMatchesLocal(t *testing.T) {
	camp, scenarios, doc := pipelineCampaign(t)
	local, err := (&fault.Engine{Campaign: camp, Opts: fault.Options{Workers: 1}}).Run(context.Background(), scenarios)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	remote, err := remoteEngine(t, camp, doc, 1).Run(context.Background(), scenarios)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if len(remote.Rows) != len(local.Rows) {
		t.Fatalf("row count %d, want %d", len(remote.Rows), len(local.Rows))
	}
	wrappers := 0
	for i, lr := range local.Rows {
		rr := remote.Rows[i]
		// Stats legitimately differ (probe taps add deliveries); the
		// classification must not.
		if rr.ID != lr.ID || rr.Site != lr.Site || rr.Model != lr.Model ||
			rr.Outcome != lr.Outcome || rr.Abort != lr.Abort || rr.Attempts != lr.Attempts {
			t.Errorf("row %d: remote %+v, local %+v", i, rr, lr)
		}
		if strings.HasPrefix(lr.Model, "drop") || strings.HasPrefix(lr.Model, "pushout") {
			wrappers++
		}
	}
	if wrappers == 0 {
		t.Fatal("grid contains no wrapper scenarios; fallback path untested")
	}
}

// TestExecutorShardedByteIdentical is the tentpole acceptance contract:
// the campaign report is byte-identical whether the fleet has 1, 2 or 4
// nodes.
func TestExecutorShardedByteIdentical(t *testing.T) {
	var reference []byte
	for _, peers := range []int{1, 2, 4} {
		camp, scenarios, doc := pipelineCampaign(t)
		rep, err := remoteEngine(t, camp, doc, peers).Run(context.Background(), scenarios)
		if err != nil {
			t.Fatalf("%d nodes: %v", peers, err)
		}
		var csv, jsonl bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		got := append(csv.Bytes(), jsonl.Bytes()...)
		if reference == nil {
			reference = got
			continue
		}
		if !bytes.Equal(got, reference) {
			t.Fatalf("%d-node report differs from 1-node reference:\n%s\nvs\n%s", peers, got, reference)
		}
	}
}

// TestExecutorSPFFilteringRemote reruns the Theorem 9 regime check through
// the fleet: a sub-cancel-bound SET on the SPF input is filtered (probe
// taps must reveal the internal glitch), an above-lock-bound SET latches.
func TestExecutorSPFFilteringRemote(t *testing.T) {
	doc, sys, err := experiments.SPFNetlist("worst", 1)
	if err != nil {
		t.Fatalf("SPFNetlist: %v", err)
	}
	c, err := doc.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	camp := &fault.Campaign{
		Circuit: c,
		Inputs:  map[string]signal.Signal{"i": signal.Zero()},
		Horizon: 200,
		Seed:    7,
		Probes:  []string{"or", "ht"},
	}
	a := sys.Analysis
	scenarios := fault.Grid(
		[]fault.Site{{From: "i", To: "or", Pin: 0}},
		[]fault.Model{
			fault.SET{At: 5, Width: 0.9 * a.CancelBound},
			fault.SET{At: 5, Width: 2.0 * a.LockBound},
		},
	)
	rep, err := remoteEngine(t, camp, doc, 2).Run(context.Background(), scenarios)
	if err != nil {
		t.Fatalf("remote sweep: %v", err)
	}
	if got := rep.Rows[0].Outcome; got != fault.Filtered.String() {
		t.Errorf("sub-cancel-bound strike: outcome %s, want filtered", got)
	}
	if got := rep.Rows[1].Outcome; got != fault.Latched.String() {
		t.Errorf("above-lock-bound strike: outcome %s, want latched", got)
	}
}

// TestInstrumentDocument pins the document-level rewrite: statement order
// mirrors fault.overlay's circuit insertion order, the target channel is
// rerouted through the fault gate, and probe taps mirror the gate nodes.
func TestInstrumentDocument(t *testing.T) {
	doc, err := netlist.ParseDocument(strings.NewReader(pipeNetlist))
	if err != nil {
		t.Fatal(err)
	}
	exec := &CampaignExecutor{Doc: doc, Inputs: map[string]signal.Signal{"i": signal.MustPulse(1, 4)}}
	ov, err := fault.SET{At: 2, Width: 0.5}.Overlay(fault.Site{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	got, taps, err := InstrumentOverlay(exec.Doc, exec.Inputs, fault.Site{From: "i", To: "b1", Pin: 0}, ov, []string{"b1", "b2"})
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	want := `circuit pipe+fault
input i
output o
gate b1 BUF init=0
gate b2 BUF init=0
input __fault_ctl
gate __fault_g XOR2 init=0
output __tap_b1
output __tap_b2
channel b1 b2 0 pure d=1
channel b2 o 0 zero
channel i __fault_g 0 pure d=1
channel __fault_ctl __fault_g 1 zero
channel __fault_g b1 0 zero
channel b1 __tap_b1 0 zero
channel b2 __tap_b2 0 zero
`
	if got.String() != want {
		t.Errorf("instrumented document:\n%s\nwant:\n%s", got.String(), want)
	}
	if len(taps) != 2 || taps["__tap_b1"] != "b1" || taps["__tap_b2"] != "b2" {
		t.Errorf("taps %v", taps)
	}
	if _, err := got.Build(); err != nil {
		t.Errorf("instrumented document does not build: %v", err)
	}
	if _, _, err := InstrumentOverlay(exec.Doc, exec.Inputs, fault.Site{From: "b1", To: "o", Pin: 0}, ov, nil); err == nil {
		t.Error("nonexistent edge accepted")
	}
	if _, _, err := InstrumentOverlay(exec.Doc, exec.Inputs, fault.Site{From: "b2", To: "o", Pin: 0}, ov, []string{"nope"}); err == nil {
		t.Error("unknown probe accepted")
	}
}

// TestExecutorWrapperFaultNotRemotable pins the executor's reject
// contract so the engine's fallback never silently disappears.
func TestExecutorWrapperFaultNotRemotable(t *testing.T) {
	doc, err := netlist.ParseDocument(strings.NewReader(pipeNetlist))
	if err != nil {
		t.Fatal(err)
	}
	exec := &CampaignExecutor{Doc: doc, Inputs: map[string]signal.Signal{"i": signal.MustPulse(1, 4)}}
	sc := fault.Scenario{Model: fault.Drop{From: 0, Count: 1}, Site: fault.Site{From: "b1", To: "b2", Pin: 0, Channel: true}}
	_, _, err = exec.Execute(context.Background(), sc, 1, sim.Options{Horizon: 20}, nil)
	if !errors.Is(err, fault.ErrNotRemotable) {
		t.Fatalf("err %v, want ErrNotRemotable", err)
	}
}

// TestExecutorSETGridByteIdentical runs a SET grid over every site of the
// Fig. 5 SPF netlist through the fleet and through the local engine, and
// requires byte-identical reports. The probes are output ports only, so
// the remote documents carry no taps and even the run statistics must
// agree. The grid is run twice through one executor: the second pass
// reuses every memoized document (one per site) and must not change a
// byte either.
func TestExecutorSETGridByteIdentical(t *testing.T) {
	doc, sys, err := experiments.SPFNetlist("uniform", 3)
	if err != nil {
		t.Fatalf("SPFNetlist: %v", err)
	}
	c, err := doc.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	camp := &fault.Campaign{
		Circuit: c,
		Inputs:  map[string]signal.Signal{"i": signal.MustPulse(2, 30)},
		Horizon: 300,
		Seed:    11,
		Probes:  []string{"o"},
	}
	a := sys.Analysis
	var models []fault.Model
	for _, w := range []float64{0.5 * a.CancelBound, a.CancelBound, 0.5 * (a.CancelBound + a.LockBound), 2 * a.LockBound} {
		models = append(models, fault.SET{At: 40, Width: w}, fault.SET{At: 40, Width: w, Jitter: 5})
	}
	sites := fault.Sites(c)
	scenarios := fault.Grid(sites, models)

	report := func(eng *fault.Engine) []byte {
		t.Helper()
		rep, err := eng.Run(context.Background(), scenarios)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local := report(&fault.Engine{Campaign: camp, Opts: fault.Options{Workers: 1}})

	eng := remoteEngine(t, camp, doc, 2)
	for pass := 0; pass < 2; pass++ {
		if got := report(eng); !bytes.Equal(got, local) {
			t.Fatalf("pass %d: remote report differs from local:\n%s\nvs\n%s", pass, got, local)
		}
	}
	exec := eng.Opts.Executor.(*CampaignExecutor)
	if n := len(exec.instrs); n != len(sites) {
		t.Fatalf("executor memo holds %d documents, want one per site (%d)", n, len(sites))
	}
}
