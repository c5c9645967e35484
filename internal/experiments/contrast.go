package experiments

import (
	"fmt"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
	"involution/internal/spf"
)

// ContrastRow compares the stabilization behavior of the OR storage loop
// built from a bounded single-history channel (inertial delay) against the
// η-involution channel, for an input pulse a distance Gap from the
// respective decision threshold.
type ContrastRow struct {
	Gap float64
	// InertialSettle is the storage-loop stabilization time with an
	// inertial feedback channel; it stays bounded by a constant no matter
	// how close the pulse is to the threshold — the model solves
	// bounded-time SPF, which is physically impossible (the unfaithfulness
	// of [Függer et al., IEEE TC 2016]).
	InertialSettle float64
	// InvolutionSettle / InvolutionPulses grow without bound as Gap → 0:
	// the metastable chain faithfulness requires.
	InvolutionSettle float64
	InvolutionPulses int
}

// inertialLoopSettle simulates the OR loop with an inertial feedback
// channel (delay d, window w) for an input pulse of length delta0 and
// returns the loop's stabilization time.
func inertialLoopSettle(d, w, delta0, horizon float64) (float64, error) {
	m, err := channel.NewInertial(d, w)
	if err != nil {
		return 0, err
	}
	c := circuit.New("inertial-loop")
	steps := []error{
		c.AddInput("i"),
		c.AddOutput("o"),
		c.AddGate("or", gate.Or(2), signal.Low),
		c.Connect("i", "or", 0, nil),
		c.Connect("or", "or", 1, m),
		c.Connect("or", "o", 0, nil),
	}
	for _, err := range steps {
		if err != nil {
			return 0, err
		}
	}
	in, err := signal.Pulse(0, delta0)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: horizon, Record: []string{"or"}})
	if err != nil {
		return 0, err
	}
	return res.Signals["or"].StabilizationTime(), nil
}

// UnfaithfulnessContrast sweeps input pulses toward the decision threshold
// of each model. The inertial loop (window w = delay d = 1) decides within
// a constant time for every gap; the η-involution loop's settling time and
// pulse count grow as the gap shrinks — no bounded-time decision exists.
// This is the faithfulness gap between bounded single-history models and
// the (η-)involution model, reproduced executably.
func UnfaithfulnessContrast(gaps []float64) ([]ContrastRow, error) {
	loop, err := referenceChannel()
	if err != nil {
		return nil, err
	}
	sys, err := spf.NewSystem(loop)
	if err != nil {
		return nil, err
	}
	const (
		d = 1.0 // inertial delay
		w = 1.0 // inertial window: pulses < w vanish, ≥ w lock
	)
	worst := func() adversary.Strategy { return adversary.MinUpTime{} }
	rows := make([]ContrastRow, 0, len(gaps))
	for _, gap := range gaps {
		// Below the window the pulse is absorbed after exactly its own
		// width; above it the loop locks instantly — either way the
		// inertial loop settles within a constant bound.
		inertial, err := inertialLoopSettle(d, w, w-gap, 200)
		if err != nil {
			return nil, err
		}
		obs, err := sys.Observe(sys.Analysis.Delta0Tilde+gap, worst, 4000)
		if err != nil {
			return nil, err
		}
		if obs.Resolved != signal.High {
			return nil, fmt.Errorf("contrast: Δ̃₀+%g did not resolve to 1", gap)
		}
		rows = append(rows, ContrastRow{
			Gap:              gap,
			InertialSettle:   inertial,
			InvolutionSettle: obs.StabilizationTime,
			InvolutionPulses: obs.Pulses,
		})
	}
	return rows, nil
}
