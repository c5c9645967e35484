package experiments

import (
	"fmt"
	"math"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
)

// The SR-latch experiment exercises the "more complex circuits" direction
// of the paper's future work: a cross-coupled NOR latch with η-involution
// channels on both feedback paths. Releasing set and reset almost
// simultaneously drives the latch into metastability; the resolution time
// grows as the release offset approaches the balance point — the same
// unbounded-stabilization phenomenon as in the SPF loop, now in a
// two-gate, two-channel feedback structure.

// SRLatchResult summarizes one release experiment.
type SRLatchResult struct {
	Offset      float64       // reset-release time minus set-release time
	Q           signal.Signal // latch output (NOR q)
	State       signal.Value  // final value of q
	Transitions int           // q transitions (oscillation length)
	SettleTime  float64
}

// buildSRLatch constructs the cross-coupled NOR pair:
//
//	q  = NOR(r, qb')   qb = NOR(s, q')
//
// with q', qb' the opposite output through an η-involution channel.
func buildSRLatch(eta adversary.Eta, mk func() adversary.Strategy) (*circuit.Circuit, error) {
	pair, err := delay.Exp(ReferenceExp)
	if err != nil {
		return nil, err
	}
	mkModel := func() (channel.Model, error) {
		ch, err := core.New(pair, eta)
		if err != nil {
			return nil, err
		}
		return channel.NewInvolution(ch, mk)
	}
	c1, err := mkModel()
	if err != nil {
		return nil, err
	}
	c2, err := mkModel()
	if err != nil {
		return nil, err
	}
	c := circuit.New("sr-latch")
	steps := []error{
		c.AddInput("s"),
		c.AddInput("r"),
		c.AddOutput("q"),
		c.AddOutput("qb"),
		// Both set and reset initially asserted: q = qb = 0 (the
		// forbidden drive state); releasing both races the cross-coupling.
		c.AddGate("nq", gate.Nor(2), signal.Low),
		c.AddGate("nqb", gate.Nor(2), signal.Low),
		c.Connect("r", "nq", 0, nil),
		c.Connect("nqb", "nq", 1, c1),
		c.Connect("s", "nqb", 0, nil),
		c.Connect("nq", "nqb", 1, c2),
		c.Connect("nq", "q", 0, nil),
		c.Connect("nqb", "qb", 0, nil),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SRLatchRelease releases set at time 1 and reset at time 1+offset from
// the both-asserted state and simulates the resolution under the given
// adversary.
func SRLatchRelease(eta adversary.Eta, offset float64, mk func() adversary.Strategy, horizon float64) (SRLatchResult, error) {
	c, err := buildSRLatch(eta, mk)
	if err != nil {
		return SRLatchResult{}, err
	}
	tS := 1.0
	tR := 1.0 + offset
	s, err := signal.New(signal.High, signal.Transition{At: tS, To: signal.Low})
	if err != nil {
		return SRLatchResult{}, err
	}
	r, err := signal.New(signal.High, signal.Transition{At: tR, To: signal.Low})
	if err != nil {
		return SRLatchResult{}, err
	}
	res, err := sim.Run(c, map[string]signal.Signal{"s": s, "r": r},
		sim.Options{Horizon: horizon, MaxEvents: 1 << 22, Record: []string{"nq"}})
	if err != nil {
		return SRLatchResult{}, err
	}
	q := res.Signals["nq"]
	return SRLatchResult{
		Offset:      offset,
		Q:           q,
		State:       q.Final(),
		Transitions: q.Len(),
		SettleTime:  q.StabilizationTime(),
	}, nil
}

// SRLatchSweep sweeps the release offset across the balance point and
// returns per-offset results. Far-negative offsets (reset released well
// before set) resolve q to 1; far-positive ones (reset held longer) to 0.
func SRLatchSweep(eta adversary.Eta, offsets []float64, mk func() adversary.Strategy, horizon float64) ([]SRLatchResult, error) {
	out := make([]SRLatchResult, 0, len(offsets))
	for _, off := range offsets {
		r, err := SRLatchRelease(eta, off, mk, horizon)
		if err != nil {
			return nil, fmt.Errorf("offset %g: %w", off, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// SRLatchBoundary bisects the metastability balance point of the release
// offset under the given adversary and returns it together with the
// longest observed settle time during the bisection.
func SRLatchBoundary(eta adversary.Eta, mk func() adversary.Strategy, horizon float64) (boundary, maxSettle float64, err error) {
	lo, hi := -1.0, 1.0 // lo → q=1, hi → q=0
	for i := 0; i < 50; i++ {
		mid := 0.5 * (lo + hi)
		r, err := SRLatchRelease(eta, mid, mk, horizon)
		if err != nil {
			return 0, 0, err
		}
		if r.SettleTime > maxSettle {
			maxSettle = r.SettleTime
		}
		if r.State == signal.High {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-15*(1+math.Abs(hi)) {
			break
		}
	}
	return 0.5 * (lo + hi), maxSettle, nil
}
