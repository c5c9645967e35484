package experiments

import (
	"fmt"
	"math/rand"

	"involution/internal/adversary"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/fault"
	"involution/internal/signal"
	"involution/internal/spf"
)

// SETSweepResult is one adversary's campaign of the SET-filtering sweep.
type SETSweepResult struct {
	Adversary string
	Report    *fault.Report
}

// SETFilteringSweep injects single-event transients of widths spanning the
// three Theorem 9 regimes onto the input of the Fig. 5 SPF circuit (quiet
// input, so the strike is the only activity) under each built-in adversary,
// and classifies the outcomes. The Theorem 12 prediction: strikes below the
// certain-cancel bound are filtered under every adversary; strikes above
// the lock bound latch the output under every adversary; the band in
// between is the adversary's metastable freedom.
func SETFilteringSweep(horizon float64, seed int64) ([]SETSweepResult, *spf.System, error) {
	loop, err := referenceChannel()
	if err != nil {
		return nil, nil, err
	}
	sys, err := spf.NewSystem(loop)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	advs := []struct {
		name string
		mk   func() adversary.Strategy
	}{
		{"zero", nil},
		{"worst", func() adversary.Strategy { return adversary.MinUpTime{} }},
		{"maxup", func() adversary.Strategy { return adversary.MaxUpTime{} }},
		{"uniform", func() adversary.Strategy { return adversary.Uniform{Rng: rng} }},
	}
	var out []SETSweepResult
	for _, adv := range advs {
		c, err := sys.Build(adv.mk)
		if err != nil {
			return nil, nil, err
		}
		camp, grid := SETGrid(c, sys.Analysis, horizon, seed)
		rep, err := camp.Run(grid)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", adv.name, err)
		}
		out = append(out, SETSweepResult{Adversary: adv.name, Report: rep})
	}
	return out, sys, nil
}

// SETGrid is the SET-filtering sweep's campaign on the SPF circuit c whose
// loop analysis is a: a quiet input, probes on or and ht, and six strikes
// at t=5 on the in→or/0 site with widths straddling the Theorem 9 regime
// boundaries (two below the cancel bound, two in the metastable band, two
// above the lock bound).
func SETGrid(c *circuit.Circuit, a core.Analysis, horizon float64, seed int64) (*fault.Campaign, []fault.Scenario) {
	widths := []float64{
		0.3 * a.CancelBound,
		0.9 * a.CancelBound,
		0.5 * (a.CancelBound + a.Delta0Tilde),
		0.9 * a.Delta0Tilde,
		1.2 * a.LockBound,
		2.0 * a.LockBound,
	}
	models := make([]fault.Model, 0, len(widths))
	for _, w := range widths {
		models = append(models, fault.SET{At: 5, Width: w})
	}
	camp := &fault.Campaign{
		Circuit: c,
		Inputs:  map[string]signal.Signal{spf.NodeIn: signal.Zero()},
		Horizon: horizon,
		Seed:    seed,
		Probes:  []string{spf.NodeOr, spf.NodeHT},
	}
	site := fault.Site{From: spf.NodeIn, To: spf.NodeOr, Pin: 0}
	return camp, fault.Grid([]fault.Site{site}, models)
}

// VerifySETSweep checks the regime predictions that hold for EVERY
// adversary: sub-cancel-bound strikes filtered, above-lock-bound strikes
// latched, and nothing aborted.
func VerifySETSweep(results []SETSweepResult, sys *spf.System) error {
	a := sys.Analysis
	for _, r := range results {
		for i, row := range r.Report.Rows {
			var w float64
			if _, err := fmt.Sscanf(row.Model, "set(t=5,w=%g)", &w); err != nil {
				return fmt.Errorf("%s row %d: unparsable model %q", r.Adversary, i, row.Model)
			}
			switch {
			case row.Outcome == fault.Aborted.String():
				return fmt.Errorf("%s w=%g: aborted (%s)", r.Adversary, w, row.Abort)
			case w < a.CancelBound && row.Outcome != fault.Filtered.String():
				return fmt.Errorf("%s w=%g < cancel bound %g: outcome %s, want filtered", r.Adversary, w, a.CancelBound, row.Outcome)
			case w > a.LockBound && row.Outcome != fault.Latched.String():
				return fmt.Errorf("%s w=%g > lock bound %g: outcome %s, want latched", r.Adversary, w, a.LockBound, row.Outcome)
			}
		}
	}
	return nil
}
