package adversary

import (
	"math"
	"testing"
)

// specFor builds a representative parametrization of each registered
// strategy so the property tests exercise non-default parameters too.
func specFor(name string, seed int64) Spec {
	params := map[string]float64{}
	switch name {
	case "gauss":
		params["sigma"] = 0.7
	case "walk":
		params["step"] = 0.013
	case "sine":
		params["amp"] = 0.05
		params["period"] = 3.5
		params["phase"] = 0.4
	case "hold":
		params["tr"] = -0.35
		params["tf"] = -0.15
		params["gain"] = 1.2
	}
	if len(params) == 0 {
		params = nil
	}
	return Spec{Name: name, Seed: seed, Params: params}
}

// drive runs a fresh instance of the spec over a fixed transition sequence
// and returns every choice it made.
func drive(t *testing.T, spec Spec, eta Eta, n int) []float64 {
	t.Helper()
	st, err := New(spec)
	if err != nil {
		t.Fatalf("New(%v): %v", spec, err)
	}
	out := make([]float64, n)
	tm := 0.0
	for i := 0; i < n; i++ {
		// A deterministic but non-trivial context walk, including the ±Inf
		// offset of a first transition.
		ctx := Context{N: i + 1, At: tm, T: 0.1*float64(i%7) - 0.3, Rising: i%2 == 0}
		if i == 0 {
			ctx.T = math.Inf(1)
		}
		out[i] = st.Eta(eta, ctx)
		tm += 0.4 + 0.05*float64(i%3)
	}
	return out
}

// checkDeterministicAndClamped is the satellite property: every registered
// strategy is (a) deterministic for a fixed seed — two fresh instances make
// identical choices — and (b) always inside [−η⁻, η⁺].
func checkDeterministicAndClamped(t *testing.T, eta Eta) {
	t.Helper()
	for _, name := range Names() {
		spec := specFor(name, 42)
		a := drive(t, spec, eta, 64)
		b := drive(t, spec, eta, 64)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: choice %d not deterministic: %g vs %g (eta=%+v)", name, i, a[i], b[i], eta)
				break
			}
			if !(a[i] >= -eta.Minus && a[i] <= eta.Plus) {
				t.Errorf("%s: choice %d = %g outside [%g, %g]", name, i, a[i], -eta.Minus, eta.Plus)
				break
			}
		}
	}
}

func TestRegistryStrategiesDeterministicAndClamped(t *testing.T) {
	for _, eta := range []Eta{
		{Plus: 0.04, Minus: 0.03},
		{Plus: 0.3, Minus: 0.4},
		{Plus: 0.2, Minus: 0},  // η⁻ = 0
		{Plus: 0, Minus: 0.15}, // η⁺ = 0
		{Plus: 0, Minus: 0},    // degenerate η⁺ = η⁻ = 0
		{Plus: 1e-9, Minus: 1e-12},
	} {
		checkDeterministicAndClamped(t, eta)
	}
}

func TestRegistryRejectsUnknown(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "chaotic"},
		{Name: "uniform", Params: map[string]float64{"step": 1}},
		{Name: "hold", Params: map[string]float64{"tr": 0, "sigma": 1}},
	} {
		if _, err := New(spec); err == nil {
			t.Errorf("New accepted %v", spec)
		}
		if err := Validate(spec); err == nil {
			t.Errorf("Validate accepted %v", spec)
		}
	}
}

func TestValidateAcceptsWithoutConstructing(t *testing.T) {
	for _, name := range Names() {
		if err := Validate(specFor(name, 3)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Constructing a uniform strategy seeds a math/rand source; validating
	// its spec must not.
	spec := Spec{Name: "uniform", Seed: 3}
	if allocs := testing.AllocsPerRun(10, func() { _ = Validate(spec) }); allocs != 0 {
		t.Fatalf("Validate allocated %.0f times", allocs)
	}
}

func TestRegistryFreshInstances(t *testing.T) {
	// Stateful strategies must not share state across New calls: driving one
	// instance must not disturb another.
	spec := specFor("walk", 7)
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	eta := Eta{Plus: 0.1, Minus: 0.1}
	for i := 0; i < 16; i++ {
		ctx := Context{N: i + 1, Rising: i%2 == 0}
		va := a.Eta(eta, ctx)
		vb := b.Eta(eta, ctx)
		if va != vb {
			t.Fatalf("instances diverged at %d: %g vs %g", i, va, vb)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("hold:tf=-0.15,tr=-0.35,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "hold" || spec.Seed != 9 || spec.Params["tr"] != -0.35 || spec.Params["tf"] != -0.15 {
		t.Fatalf("bad parse: %+v", spec)
	}
	if got := spec.String(); got != "hold:tf=-0.15,tr=-0.35" {
		t.Fatalf("String() = %q", got)
	}
	if _, err := ParseSpec("walk:step"); err == nil {
		t.Fatal("malformed parameter accepted")
	}
}

// FuzzStrategyClamp fuzzes the η bounds (including zero and degenerate
// intervals) and asserts every registered strategy stays clamped and
// deterministic.
func FuzzStrategyClamp(f *testing.F) {
	f.Add(0.04, 0.03, int64(1))
	f.Add(0.0, 0.0, int64(2))
	f.Add(0.5, 0.0, int64(3))
	f.Add(0.0, 0.7, int64(4))
	f.Fuzz(func(t *testing.T, plus, minus float64, seed int64) {
		if math.IsNaN(plus) || math.IsNaN(minus) || math.IsInf(plus, 0) || math.IsInf(minus, 0) {
			t.Skip()
		}
		if plus < 0 || minus < 0 || plus > 1e6 || minus > 1e6 {
			t.Skip()
		}
		eta := Eta{Plus: plus, Minus: minus}
		for _, name := range Names() {
			spec := specFor(name, seed)
			a := drive(t, spec, eta, 32)
			b := drive(t, spec, eta, 32)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: choice %d not deterministic for seed %d", name, i, seed)
				}
				if !(a[i] >= -eta.Minus && a[i] <= eta.Plus) {
					t.Fatalf("%s: choice %d = %g outside [%g, %g]", name, i, a[i], -eta.Minus, eta.Plus)
				}
			}
		}
	})
}
