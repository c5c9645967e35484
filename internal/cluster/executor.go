package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/sim"
)

// tapPrefix names the synthetic output ports a remote scenario adds so the
// coordinator can read back probe-node signals (remote nodes only return
// output signals). "__tap_or" mirrors node "or" through a zero-delay
// channel, so the recorded tap signal is bit-identical to the node's.
const tapPrefix = "__tap_"

// CampaignExecutor ships overlay-fault scenarios (SET, StuckAt) of one
// campaign to a simd fleet through a Coordinator, implementing
// fault.Executor. Wrapper faults and scenarios whose overlay cannot be
// constructed are rejected with fault.ErrNotRemotable, which makes the
// engine run them locally.
//
// The executor re-creates fault.Instrument's circuit rewrite at the
// netlist-document level, preserving the local statement (and therefore
// node- and edge-insertion) order, so remote signal traces match local
// ones exactly. The one structural difference is the probe taps: they add
// scheduled/delivered events to the remote run's statistics, so stats —
// unlike signals — are not comparable between local and remote runs. They
// are still deterministic for a fixed executor configuration, so sharded
// reports remain byte-identical across node counts.
//
// The instrumented netlist of a scenario depends only on its site, overlay
// gate, control initial value and probes, so the executor renders each
// such document once and reuses its text for every scenario that shares
// it; only the control stimulus is rendered per scenario. Doc and Inputs
// must therefore not change after the first Execute.
type CampaignExecutor struct {
	// Coord routes the instrumented jobs to the fleet.
	Coord *Coordinator
	// Doc is the netlist document of the campaign's fault-free circuit —
	// the same design Campaign.Circuit was built from.
	Doc *netlist.Document
	// Inputs is the campaign stimulus set (Campaign.Inputs).
	Inputs map[string]signal.Signal

	// mu guards the memo below: fault.Engine workers share the executor.
	mu     sync.Mutex
	stim   map[string]string // Inputs in signal syntax, rendered once
	instrs map[instrKey]*instrumented
}

// instrKey identifies one instrumented document of the campaign.
type instrKey struct {
	site    fault.Site
	gate    string       // overlay gate, by its netlist name
	ctlInit signal.Value // the control stimulus's initial value
	probes  string       // probe names, NUL-joined
}

// instrumented is one rendered InstrumentOverlay result.
type instrumented struct {
	netlist string
	taps    map[string]string // tap output → probe node
}

// instrument returns the memoized instrumented document for the overlay
// and the rendered campaign stimuli. Failures are not memoized; they are
// deterministic and cheap to reproduce.
func (e *CampaignExecutor) instrument(site fault.Site, ov fault.Overlay, probes []string) (*instrumented, map[string]string, error) {
	key := instrKey{site: site, gate: ov.Gate.Name, ctlInit: ov.Ctl.Initial(), probes: strings.Join(probes, "\x00")}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stim == nil {
		e.stim = make(map[string]string, len(e.Inputs))
		for name, sig := range e.Inputs {
			e.stim[name] = sig.String()
		}
		e.instrs = make(map[instrKey]*instrumented)
	}
	if in, ok := e.instrs[key]; ok {
		return in, e.stim, nil
	}
	doc, taps, err := InstrumentOverlay(e.Doc, e.Inputs, site, ov, probes)
	if err != nil {
		return nil, nil, err
	}
	in := &instrumented{netlist: doc.String(), taps: taps}
	e.instrs[key] = in
	return in, e.stim, nil
}

// Execute implements fault.Executor: it instruments Doc with the
// scenario's overlay, submits the result as one content-addressed simd
// job, and returns the recorded signals keyed by original node names.
func (e *CampaignExecutor) Execute(ctx context.Context, sc fault.Scenario, seed int64, opts sim.Options, probes []string) (map[string]signal.Signal, sim.RunStats, error) {
	ovf, ok := sc.Model.(fault.OverlayFault)
	if !ok {
		return nil, sim.RunStats{}, fmt.Errorf("%w: %s is a wrapper fault", fault.ErrNotRemotable, sc.Model)
	}
	// Consume randomness exactly as the local Instrument path does, so the
	// remote scenario is the same experiment under the same seed.
	ov, err := ovf.Overlay(sc.Site, fault.ScenarioRand(seed))
	if err != nil {
		// Invalid parameters: fall back so the local path reports the
		// canonical "instrument" abort row.
		return nil, sim.RunStats{}, fmt.Errorf("%w: %v", fault.ErrNotRemotable, err)
	}
	in, inputs, err := e.instrument(sc.Site, ov, probes)
	if err != nil {
		return nil, sim.RunStats{}, err
	}

	stim := make(map[string]string, len(inputs)+1)
	for name, text := range inputs {
		stim[name] = text
	}
	stim[fault.CtlInput] = ov.Ctl.String()
	// No Request.Seed: the netlist bakes in every random stream (channel
	// seed= options; the overlay consumed the scenario seed above), so
	// scenarios that map to the same document are legitimate cache hits.
	req := api.Request{
		Netlist:    in.netlist,
		Inputs:     stim,
		Horizon:    opts.Horizon,
		MaxEvents:  opts.MaxEvents,
		DeadlineMS: opts.Deadline.Milliseconds(),
	}

	rec, err := e.Coord.RunOne(ctx, req)
	if err != nil {
		return nil, sim.RunStats{}, err
	}
	var payload api.ResultPayload
	if err := json.Unmarshal(rec.Result, &payload); err != nil {
		return nil, sim.RunStats{}, fmt.Errorf("cluster: node returned unparsable result: %w", err)
	}
	if payload.Status != api.StatusCompleted {
		return nil, payload.Stats, &fault.RemoteAbort{
			Class: sim.Class(payload.Class),
			Msg:   payload.Error,
			Stats: payload.Stats,
		}
	}
	sigs := make(map[string]signal.Signal, len(payload.Outputs))
	for name, text := range payload.Outputs {
		sig, err := signal.Parse(text)
		if err != nil {
			return nil, payload.Stats, fmt.Errorf("cluster: bad remote signal for %q: %w", name, err)
		}
		if probe, ok := in.taps[name]; ok {
			name = probe
		}
		sigs[name] = sig
	}
	return sigs, payload.Stats, nil
}

// docNodes indexes the node statements of a netlist document.
type docNodes struct {
	kind map[string]string       // node name → "input"|"output"|"gate"
	init map[string]signal.Value // gate name → initial value
}

func indexNodes(d *netlist.Document) (docNodes, error) {
	n := docNodes{kind: make(map[string]string), init: make(map[string]signal.Value)}
	for _, st := range d.Stmts {
		switch st.Fields[0] {
		case "input", "output":
			if len(st.Fields) != 2 {
				return n, fmt.Errorf("cluster: malformed %s statement %v", st.Fields[0], st.Fields)
			}
			n.kind[st.Fields[1]] = st.Fields[0]
		case "gate":
			if len(st.Fields) < 3 {
				return n, fmt.Errorf("cluster: malformed gate statement %v", st.Fields)
			}
			n.kind[st.Fields[1]] = "gate"
			init := signal.Low
			for _, f := range st.Fields[3:] {
				if f == "init=1" {
					init = signal.High
				}
			}
			n.init[st.Fields[1]] = init
		}
	}
	return n, nil
}

// sourceInitial mirrors fault.overlay's source-initial lookup on the
// document: the value the site's source node holds until time 0.
func sourceInitial(nodes docNodes, inputs map[string]signal.Signal, docName, from string) (signal.Value, error) {
	switch nodes.kind[from] {
	case "input":
		in, ok := inputs[from]
		if !ok {
			// The local path fails instrumentation here; fall back so it
			// reports the canonical abort class.
			return signal.Low, fmt.Errorf("%w: no stimulus for input port %q", fault.ErrNotRemotable, from)
		}
		return in.Initial(), nil
	case "gate":
		return nodes.init[from], nil
	default:
		return signal.Low, fmt.Errorf("cluster: site source %q is not an input or gate of document %q", from, docName)
	}
}

// InstrumentOverlay rewrites the document with the site's channel routed
// through the overlay gate, in exactly the insertion order fault.overlay
// uses on circuits (original nodes, control input, fault gate; original
// edges, then the three fault edges), plus one tap output per non-output
// probe. It returns the instrumented document and the tap→probe name
// mapping. It is the netlist-level twin of fault.Instrument, shared by the
// campaign executor and stackbench's sweep workload.
func InstrumentOverlay(srcDoc *netlist.Document, inputs map[string]signal.Signal, site fault.Site, ov fault.Overlay, probes []string) (*netlist.Document, map[string]string, error) {
	nodes, err := indexNodes(srcDoc)
	if err != nil {
		return nil, nil, err
	}
	for _, reserved := range []string{fault.CtlInput, fault.FaultGate} {
		if _, ok := nodes.kind[reserved]; ok {
			return nil, nil, fmt.Errorf("cluster: document %q already contains %q", srcDoc.Name, reserved)
		}
	}

	// Locate the target channel statement. (To, Pin) is unique in a valid
	// circuit, exactly as in fault.overlay.
	target := -1
	var channels []netlist.Stmt
	for _, st := range srcDoc.Stmts {
		if st.Fields[0] != "channel" {
			continue
		}
		if len(st.Fields) < 5 {
			return nil, nil, fmt.Errorf("cluster: malformed channel statement %v", st.Fields)
		}
		pin, err := strconv.Atoi(st.Fields[3])
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: bad pin in channel statement %v", st.Fields)
		}
		if st.Fields[2] == site.To && pin == site.Pin {
			if st.Fields[1] != site.From {
				return nil, nil, fmt.Errorf("cluster: document %q edge to %s/%d comes from %q, not %q",
					srcDoc.Name, site.To, site.Pin, st.Fields[1], site.From)
			}
			target = len(channels)
		}
		channels = append(channels, st)
	}
	if target < 0 {
		return nil, nil, fmt.Errorf("cluster: no edge %s in document %q", site.Label(), srcDoc.Name)
	}

	srcInit, err := sourceInitial(nodes, inputs, srcDoc.Name, site.From)
	if err != nil {
		return nil, nil, err
	}
	gateInit := ov.Gate.Eval([]signal.Value{srcInit, ov.Ctl.Initial()})
	initOpt := "init=0"
	if gateInit == signal.High {
		initOpt = "init=1"
	}

	out := &netlist.Document{Name: srcDoc.Name + "+fault"}
	add := func(fields ...string) { out.Stmts = append(out.Stmts, netlist.Stmt{Fields: fields}) }

	// Nodes first, in local insertion order: originals, control, gate.
	for _, st := range srcDoc.Stmts {
		if st.Fields[0] != "channel" {
			out.Stmts = append(out.Stmts, st)
		}
	}
	add("input", fault.CtlInput)
	add("gate", fault.FaultGate, ov.Gate.Name, initOpt)

	// Probe taps: zero-delay mirrors of non-output probe nodes, so their
	// signals come back in the result payload's outputs.
	taps := make(map[string]string, len(probes))
	for _, p := range probes {
		kind, ok := nodes.kind[p]
		if !ok {
			return nil, nil, fmt.Errorf("cluster: probe %q is not a node of document %q", p, srcDoc.Name)
		}
		if kind == "output" {
			continue // already recorded remotely under its own name
		}
		tap := tapPrefix + p
		if _, clash := nodes.kind[tap]; clash {
			return nil, nil, fmt.Errorf("cluster: document %q already contains %q", srcDoc.Name, tap)
		}
		taps[tap] = p
		add("output", tap)
	}

	// Edges, again in local order: originals minus the target, then the
	// rerouted target channel, the control edge and the gate output edge.
	for i, st := range channels {
		if i == target {
			continue
		}
		out.Stmts = append(out.Stmts, st)
	}
	add(append([]string{"channel", site.From, fault.FaultGate, "0"}, channels[target].Fields[4:]...)...)
	add("channel", fault.CtlInput, fault.FaultGate, "1", "zero")
	add("channel", fault.FaultGate, site.To, strconv.Itoa(site.Pin), "zero")
	for _, p := range probes {
		if tap := tapPrefix + p; taps[tap] == p {
			add("channel", p, tap, "0", "zero")
		}
	}
	return out, taps, nil
}
