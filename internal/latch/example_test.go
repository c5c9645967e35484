package latch_test

import (
	"fmt"

	"involution/internal/adversary"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/latch"
	"involution/internal/signal"
)

// ExampleSystem_Capture sweeps the data edge of a one-shot latch built from
// gates and η-involution channels against the closing enable: it exposes
// the setup window and the metastable chains near the capture boundary,
// while the high-threshold output buffer keeps the external output free of
// runt pulses.
func ExampleSystem_Capture() {
	loop := core.MustNew(
		delay.MustExp(delay.ExpParams{Tau: 1, TP: 0.5, Vth: 0.6}),
		adversary.Eta{Plus: 0.04, Minus: 0.03})
	sys, _ := latch.NewSystem(loop)
	const enWidth = 10.0
	worst := func() adversary.Strategy { return adversary.MinUpTime{} }

	fmt.Println("one-shot latch: enable high on [0, 10); data rises once at t_d")
	fmt.Printf("%8s %10s %12s %12s %8s\n", "t_d", "captured", "loop pulses", "settle", "clean")
	for _, td := range []float64{2, 7, 7.9, 8.02, 8.04, 8.06, 8.2, 9, 11} {
		obs, _ := sys.Capture(td, enWidth, worst, 1500)
		fmt.Printf("%8.2f %10v %12d %12.3f %8v\n",
			td, obs.Captured, obs.LoopPulses, obs.SettleTime, obs.CleanOutput())
	}

	// Bisect the capture boundary to exhibit the metastable window.
	lo, hi := enWidth-3.5, enWidth+0.5
	for i := 0; i < 30; i++ {
		mid := 0.5 * (lo + hi)
		if obs, _ := sys.Capture(mid, enWidth, worst, 1500); obs.Captured == signal.High {
			lo = mid
		} else {
			hi = mid
		}
	}
	fmt.Printf("\ncapture boundary (worst-case adversary): t_d ≈ %.6f\n", 0.5*(lo+hi))
	obs, _ := sys.Capture(lo, enWidth, worst, 1500)
	fmt.Printf("just inside: %d loop pulses before settling at t=%.3f — the\n", obs.LoopPulses, obs.SettleTime)
	fmt.Println("metastable chain no bounded-time circuit can avoid (faithfulness).")
	// Output:
	// one-shot latch: enable high on [0, 10); data rises once at t_d
	//      t_d   captured  loop pulses       settle    clean
	//     2.00          1            1       10.747     true
	//     7.00          1            1       10.747     true
	//     7.90          1            1       10.747     true
	//     8.02          1            1       10.747     true
	//     8.04          1            1       10.747     true
	//     8.06          1            1       10.747     true
	//     8.20          1            1       10.747     true
	//     9.00          0            1       10.497     true
	//    11.00          0            0        0.000     true
	//
	// capture boundary (worst-case adversary): t_d ≈ 8.449407
	// just inside: 16 loop pulses before settling at t=28.877 — the
	// metastable chain no bounded-time circuit can avoid (faithfulness).
}
