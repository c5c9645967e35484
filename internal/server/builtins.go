package server

import (
	"involution/internal/circuit"
	"involution/internal/experiments"
)

// spfAdversaries are the Request.Adversary values the built-in SPF circuit
// accepts; the first is the default.
var spfAdversaries = []string{"zero", "worst", "maxup", "uniform"}

// defaultBuiltins returns the stock circuit registry: the paper's Fig. 5
// single-pulse filter over the reference η-involution loop channel.
func defaultBuiltins() []Builtin {
	return []Builtin{{
		Name:        "spf",
		Desc:        "Fig. 5 single-pulse filter: fed-back OR + high-threshold buffer over the reference η-involution channel",
		Adversaries: spfAdversaries,
		Build:       buildSPF,
	}}
}

// buildSPF builds the Fig. 5 SPF netlist (experiments.SPFNetlist) under the
// named adversary. Randomized adversaries seed a fresh rng per channel
// instance from the request seed, so runs are deterministic per (adv,
// seed) — the property the result cache relies on.
func buildSPF(adv string, seed int64) (*circuit.Circuit, error) {
	doc, _, err := experiments.SPFNetlist(adv, seed)
	if err != nil {
		return nil, err
	}
	return doc.Build()
}
