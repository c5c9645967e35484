package fit_test

import (
	"fmt"
	"math"
	"math/rand"

	"involution/internal/analog"
	"involution/internal/delay"
	"involution/internal/fit"
)

// Example_noiseFit runs the full Section V methodology end to end: measure
// an analog inverter (the ASIC substitute), calibrate an exp-channel to it,
// perturb the supply with a 1 % sine, and check whether the feasible η band
// of constraint (C) covers the resulting deviations near T = 0.
func Example_noiseFit() {
	// The device under test: a slew-aware (second-order) inverter whose
	// crossing times are deliberately NOT an involution.
	nominal := analog.Inverter{Model: analog.SecondOrder, Tau: 1, Tau2: 0.3, TP: 0.25}
	cfg := analog.MeasureConfig{
		Widths: delay.Linspace(0.9, 5, 10),
		Gaps:   delay.Linspace(0.9, 5, 5),
	}

	fmt.Println("1. measuring the nominal inverter …")
	m, _ := analog.Measure(nominal, cfg)
	fmt.Printf("   %d δ↑ samples, %d δ↓ samples (%d stimuli skipped as sub-threshold)\n",
		len(m.Up), len(m.Down), m.Skipped)

	fmt.Println("2. fitting an exp-channel (Nelder–Mead least squares) …")
	res, _ := fit.FitExp(m.Up, m.Down)
	fmt.Printf("   τ=%.4f Tp=%.4f Vth=%.4f (RMSE %.2g)\n", res.Params.Tau, res.Params.TP, res.Params.Vth, res.RMSE)
	pair := delay.MustExp(res.Params)
	dmin, _ := pair.DeltaMin()

	fmt.Println("3. re-measuring under a 1 % supply sine with random phase …")
	rng := rand.New(rand.NewSource(7))
	var up, down []delay.Sample
	for _, w := range cfg.Widths {
		one := cfg
		one.Widths = []float64{w}
		noisy := nominal
		noisy.Sup = analog.SineSupply{V0: 1, Amp: 0.01, Period: 2.7, Phase: 2 * math.Pi * rng.Float64()}
		mn, _ := analog.Measure(noisy, one)
		up = append(up, mn.Up...)
		down = append(down, mn.Down...)
	}

	fmt.Println("4. comparing deviations against the feasible η band …")
	band, _ := fit.FeasibleBand(pair, 0.1*dmin)
	devs := append(fit.Deviations(up, pair.Up), fit.Deviations(down, pair.Down)...)
	covLow := fit.Coverage(devs, band, dmin)
	covAll := fit.Coverage(devs, band, math.Inf(1))
	maxLow, _ := fit.MaxAbsDeviation(devs, dmin)
	maxAll, atT := fit.MaxAbsDeviation(devs, math.Inf(1))
	fmt.Printf("   η band [−%.4f, +%.4f], δmin = %.4f\n", band.Minus, band.Plus, dmin)
	fmt.Printf("   max |D| = %.4f for T ≤ δmin, %.4f overall (at T = %.2f)\n", maxLow, maxAll, atT)
	fmt.Printf("   coverage: %.0f%% for T ≤ δmin (the faithfulness-relevant range), %.0f%% overall\n",
		100*covLow, 100*covAll)
	if covLow == 1 {
		fmt.Println("   → the η-involution model absorbs the supply noise where it matters.")
	}
	// Output:
	// 1. measuring the nominal inverter …
	//    41 δ↑ samples, 41 δ↓ samples (9 stimuli skipped as sub-threshold)
	// 2. fitting an exp-channel (Nelder–Mead least squares) …
	//    τ=1.1346 Tp=0.5048 Vth=0.4979 (RMSE 0.023)
	// 3. re-measuring under a 1 % supply sine with random phase …
	// 4. comparing deviations against the feasible η band …
	//    η band [−0.2755, +0.0505], δmin = 0.5048
	//    max |D| = 0.1031 for T ≤ δmin, 0.1031 overall (at T = -0.38)
	//    coverage: 100% for T ≤ δmin (the faithfulness-relevant range), 99% overall
	//    → the η-involution model absorbs the supply noise where it matters.
}
