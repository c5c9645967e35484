package experiments

import (
	"testing"

	"involution/internal/adversary"
	"involution/internal/signal"
	"involution/internal/sim"
	"involution/internal/spf"
)

// TestSPFNetlistMatchesBuild is the equivalence contract: the netlist
// document simulates bit-identically to the in-memory spf.Build circuit,
// for the deterministic and the worst-case adversary.
func TestSPFNetlistMatchesBuild(t *testing.T) {
	for _, adv := range []struct {
		name string
		mk   func() adversary.Strategy
	}{
		{"zero", nil},
		{"worst", func() adversary.Strategy { return adversary.MinUpTime{} }},
	} {
		doc, sys, err := SPFNetlist(adv.name, 1)
		if err != nil {
			t.Fatalf("%s: SPFNetlist: %v", adv.name, err)
		}
		fromDoc, err := doc.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", adv.name, err)
		}
		fromSys, err := sys.Build(adv.mk)
		if err != nil {
			t.Fatalf("%s: sys.Build: %v", adv.name, err)
		}
		in := map[string]signal.Signal{spf.NodeIn: signal.MustPulse(1, 2*sys.Analysis.LockBound)}
		opts := sim.Options{Horizon: 100, Record: []string{spf.NodeOr, spf.NodeHT}}
		a, err := sim.Run(fromDoc, in, opts)
		if err != nil {
			t.Fatalf("%s: netlist run: %v", adv.name, err)
		}
		b, err := sim.Run(fromSys, in, opts)
		if err != nil {
			t.Fatalf("%s: reference run: %v", adv.name, err)
		}
		for _, node := range []string{spf.NodeOr, spf.NodeHT, spf.NodeOut} {
			if a.Signals[node].String() != b.Signals[node].String() {
				t.Errorf("%s: node %s diverges: netlist %v, reference %v",
					adv.name, node, a.Signals[node], b.Signals[node])
			}
		}
		if a.Stats.Scheduled != b.Stats.Scheduled || a.Stats.Delivered != b.Stats.Delivered ||
			a.Stats.Canceled != b.Stats.Canceled {
			t.Errorf("%s: stats diverge: %+v vs %+v", adv.name, a.Stats, b.Stats)
		}
	}
}

// TestSPFNetlistRejectsUnknownAdversary pins the error path.
func TestSPFNetlistRejectsUnknownAdversary(t *testing.T) {
	if _, _, err := SPFNetlist("chaotic", 1); err == nil {
		t.Fatal("unknown adversary accepted")
	}
}
