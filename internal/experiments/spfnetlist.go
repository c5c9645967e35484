package experiments

import (
	"fmt"
	"strconv"

	"involution/internal/adversary"
	"involution/internal/delay"
	"involution/internal/netlist"
	"involution/internal/spf"
)

// SPFNetlist renders the Fig. 5 SPF circuit (reference parametrization,
// dimensioned buffer) as a netlist document, with the loop channel driven
// by the named adversary (zero|worst|maxup|uniform|walk; seed feeds the
// randomized ones). The statements follow spf.Build's insertion order
// exactly, so the built circuit ties events identically to the in-memory
// construction. Because the document carries every parameter — including
// the adversary seed — it is a complete, content-addressable description
// of the experiment, which is what lets a simd fleet run Theorem 9 sweeps
// remotely (see internal/cluster).
//
// Randomized adversaries differ from SETFilteringSweep in one documented
// way: the local sweep shares a single rng across every channel instance
// and run, while a netlist run seeds a fresh rng per channel instance.
// Both are deterministic; they are just different experiments.
func SPFNetlist(adv string, seed int64) (*netlist.Document, *spf.System, error) {
	loop, err := referenceChannel()
	if err != nil {
		return nil, nil, err
	}
	sys, err := spf.NewSystem(loop)
	if err != nil {
		return nil, nil, err
	}

	var extra []string
	switch adv {
	case "", "zero":
	case "worst", "maxup":
		extra = []string{"adversary=" + adv}
	case "uniform", "walk":
		extra = []string{"adversary=" + adv, "seed=" + strconv.FormatInt(seed, 10)}
	default:
		return nil, nil, fmt.Errorf("experiments: unknown adversary %q", adv)
	}
	return SPFDocument("spf", ReferenceEta, extra, sys.Buffer, ""), sys, nil
}

// SPFDocument renders a Fig. 5 SPF netlist named name: the storage loop is
// the ReferenceExp channel widened to the η interval eta, with the extra
// loop-channel fields (adversary and its parameters) appended, and the
// high-threshold buffer is the exp channel buffer. A non-empty tap adds an
// output port of that name mirroring the loop node through a zero-delay
// channel, so a remote run returns the loop trace. The statements follow
// spf.Build's insertion order (the tap's port after the gates, its channel
// last), so loop events tie exactly as in the in-memory construction.
func SPFDocument(name string, eta adversary.Eta, loopExtra []string, buffer delay.ExpParams, tap string) *netlist.Document {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := &netlist.Document{Name: name}
	add := func(fields ...string) { d.Stmts = append(d.Stmts, netlist.Stmt{Fields: fields}) }
	add("input", spf.NodeIn)
	add("output", spf.NodeOut)
	add("gate", spf.NodeOr, "OR2", "init=0")
	add("gate", spf.NodeHT, "BUF", "init=0")
	if tap != "" {
		add("output", tap)
	}
	add("channel", spf.NodeIn, spf.NodeOr, "0", "zero")
	add(append([]string{"channel", spf.NodeOr, spf.NodeOr, "1", "exp",
		"tau=" + g(ReferenceExp.Tau), "tp=" + g(ReferenceExp.TP), "vth=" + g(ReferenceExp.Vth),
		"eta+=" + g(eta.Plus), "eta-=" + g(eta.Minus)}, loopExtra...)...)
	add("channel", spf.NodeOr, spf.NodeHT, "0", "exp",
		"tau="+g(buffer.Tau), "tp="+g(buffer.TP), "vth="+g(buffer.Vth))
	add("channel", spf.NodeHT, spf.NodeOut, "0", "zero")
	if tap != "" {
		add("channel", spf.NodeOr, tap, "0", "zero")
	}
	return d
}
