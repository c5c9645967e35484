package channel_test

import (
	"fmt"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/signal"
)

// ExampleModel pushes the same fast pulse train through every channel
// model — the scenario from the paper's introduction where model choice
// matters most. Pure delay passes everything, inertial delay is
// all-or-nothing at its window, DDM degrades sharply, and the
// (η-)involution channel attenuates gradually — the behavior real circuits
// exhibit (cf. the inverter-chain measurements of Section V).
func ExampleModel() {
	// A train of progressively narrower pulses: 1.3, 1.1, 0.9, … 0.3.
	var times []float64
	t := 0.0
	for w := 1.3; w > 0.2; w -= 0.2 {
		times = append(times, t, t+w)
		t += w + 2.5
	}
	in, _ := signal.FromEdges(signal.Low, times...)
	fmt.Printf("input: %d pulses, widths 1.3 … 0.3\n\n", len(in.Pulses()))

	pair := delay.MustExp(delay.ExpParams{Tau: 1, TP: 0.5, Vth: 0.6})
	pure, _ := channel.NewPure(1.0)
	inertial, _ := channel.NewInertial(1.0, 1.0)
	ddm, _ := channel.NewSymmetricDDM(channel.DDMBranch{TP0: 1.0, Tau: 0.8, T0: 0.3})
	invol, _ := channel.NewInvolution(core.MustNew(pair, adversary.Eta{}), nil)
	etaInvol, _ := channel.NewInvolution(
		core.MustNew(pair, adversary.Eta{Plus: 0.04, Minus: 0.03}),
		func() adversary.Strategy { return adversary.MinUpTime{} })

	for _, m := range []channel.Model{pure, inertial, ddm, invol, etaInvol} {
		out, err := m.Apply(in)
		if err != nil {
			fmt.Printf("%v: %v\n", m, err)
			continue
		}
		pulses := out.Pulses()
		fmt.Printf("%-28s → %d pulses survive", m, len(pulses))
		if len(pulses) > 0 {
			fmt.Printf(" (widths:")
			for _, p := range pulses {
				fmt.Printf(" %.2f", p.Len())
			}
			fmt.Printf(")")
		}
		fmt.Println()
	}

	fmt.Println("\nNote how the involution models shrink surviving pulses gradually")
	fmt.Println("while pure delay keeps them intact and inertial delay cuts sharply")
	fmt.Println("at its window — the discontinuity that makes bounded single-history")
	fmt.Println("models unfaithful (Függer et al., IEEE TC 2016).")
	// Output:
	// input: 6 pulses, widths 1.3 … 0.3
	//
	// pure(D=1)                    → 6 pulses survive (widths: 1.30 1.10 0.90 0.70 0.50 0.30)
	// inertial(D=1,W=1)            → 2 pulses survive (widths: 1.30 1.10)
	// ddm(up={TP0:1 Tau:0.8 T0:0.3},down={TP0:1 Tau:0.8 T0:0.3}) → 1 pulses survive (widths: 0.30)
	// involution                   → 3 pulses survive (widths: 0.58 0.38 0.07)
	// η-involution(η⁺=0.04,η⁻=0.03) → 2 pulses survive (widths: 0.49 0.29)
	//
	// Note how the involution models shrink surviving pulses gradually
	// while pure delay keeps them intact and inertial delay cuts sharply
	// at its window — the discontinuity that makes bounded single-history
	// models unfaithful (Függer et al., IEEE TC 2016).
}
