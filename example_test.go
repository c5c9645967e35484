package involution_test

import (
	"fmt"

	"involution/internal/adversary"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/signal"
)

// Example is the quickstart: build an η-involution channel, push pulses
// through it, and query the Section IV analysis.
func Example() {
	// 1. A delay-function pair: the analytic exp-channel (a gate driving an
	//    RC load with threshold Vth·VDD). Time units are arbitrary.
	pair, _ := delay.Exp(delay.ExpParams{Tau: 1, TP: 0.5, Vth: 0.6})
	fmt.Printf("exp-channel: δ↑∞=%.3f δ↓∞=%.3f\n", pair.UpLimit(), pair.DownLimit())
	dmin, _ := pair.DeltaMin()
	fmt.Printf("δmin = %.3f (Lemma 1: equals Tp for exp-channels)\n\n", dmin)

	// 2. An η-involution channel: the pair plus a bounded adversarial
	//    perturbation of every delay.
	ch, _ := core.New(pair, adversary.Eta{Plus: 0.04, Minus: 0.03})
	if ok, slack, _ := ch.ConstraintC(); ok {
		fmt.Printf("constraint (C) holds with slack %.4f → the model is faithful\n\n", slack)
	}

	// 3. Push signals through the channel under different adversaries.
	long := signal.MustPulse(0, 3)
	short := signal.MustPulse(0, 0.5)
	border := signal.MustPulse(0, pair.UpLimit()-dmin-0.05)
	fmt.Printf("long  pulse %v\n  → zero adversary: %v\n", long, ch.MustApply(long, adversary.Zero{}))
	fmt.Printf("short pulse %v\n  → zero adversary: %v (canceled)\n", short, ch.MustApply(short, adversary.Zero{}))
	fmt.Printf("border pulse %v\n  → zero adversary : %v (canceled)\n", border, ch.MustApply(border, adversary.Zero{}))
	fmt.Printf("  → de-canceling η: %v (the adversary rescued it!)\n\n", ch.MustApply(border, adversary.MaxUpTime{}))

	// 4. Query the faithfulness analysis (Lemma 5 / Theorem 9).
	a, _ := core.Analyze(ch)
	fmt.Printf("worst-case pulse train: Δ̄=%.4f, period P=%.4f, duty γ̄=%.4f < 1\n", a.DeltaBar, a.Period, a.Gamma)
	fmt.Printf("Theorem 9 regimes for an input pulse Δ₀:\n")
	fmt.Printf("  Δ₀ ≤ %.4f            → pulse certainly filtered\n", a.CancelBound)
	fmt.Printf("  %.4f < Δ₀ < %.4f → metastable window (Δ̃₀ = %.4f)\n", a.CancelBound, a.LockBound, a.Delta0Tilde)
	fmt.Printf("  Δ₀ ≥ %.4f            → storage loop certainly locks\n", a.LockBound)
	// Output:
	// exp-channel: δ↑∞=1.416 δ↓∞=1.011
	// δmin = 0.500 (Lemma 1: equals Tp for exp-channels)
	//
	// constraint (C) holds with slack 0.1498 → the model is faithful
	//
	// long  pulse 0 r@0 f@3
	//   → zero adversary: 0 r@1.416290731874155 f@3.959756442823289
	// short pulse 0 r@0 f@0.5
	//   → zero adversary: 0 (canceled)
	// border pulse 0 r@0 f@0.8662907318741551
	//   → zero adversary : 0 (canceled)
	//   → de-canceling η: 0 r@1.386290731874155 f@1.3927316617290395 (the adversary rescued it!)
	//
	// worst-case pulse train: Δ̄=0.4345, period P=0.6309, duty γ̄=0.6887 < 1
	// Theorem 9 regimes for an input pulse Δ₀:
	//   Δ₀ ≤ 0.8463            → pulse certainly filtered
	//   0.8463 < Δ₀ < 1.4563 → metastable window (Δ̃₀ = 1.2599)
	//   Δ₀ ≥ 1.4563            → storage loop certainly locks
}
