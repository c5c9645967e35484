package fault

import (
	"math/rand"
	"testing"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
)

// pipeline builds i →(pure 1)→ b1 →(pure 1)→ b2 → o.
func pipeline(t *testing.T) *circuit.Circuit {
	t.Helper()
	pure, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("pipe")
	for _, err := range []error{
		c.AddInput("i"),
		c.AddOutput("o"),
		c.AddGate("b1", gate.Buf(), signal.Low),
		c.AddGate("b2", gate.Buf(), signal.Low),
		c.Connect("i", "b1", 0, pure),
		c.Connect("b1", "b2", 0, pure),
		c.Connect("b2", "o", 0, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func pipelineInputs() map[string]signal.Signal {
	return map[string]signal.Signal{"i": signal.MustPulse(1, 4)}
}

func runFault(t *testing.T, m Model, s Site) (*sim.Result, *sim.Result) {
	t.Helper()
	c := pipeline(t)
	in := pipelineInputs()
	opts := sim.Options{Horizon: 20, Record: []string{"b1", "b2"}} // the probes
	base, err := sim.Run(c, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	fc, fin, err := m.Instrument(c, s, in, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(fc, fin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return base, res
}

func TestSites(t *testing.T) {
	sites := Sites(pipeline(t))
	if len(sites) != 3 {
		t.Fatalf("want 3 sites, got %v", sites)
	}
	if !sites[0].Channel || !sites[1].Channel || sites[2].Channel {
		t.Fatalf("channel flags wrong: %v", sites)
	}
	if sites[1].Label() != "b1→b2/0" {
		t.Fatalf("label %q", sites[1].Label())
	}
}

func TestSETPropagates(t *testing.T) {
	// Strike b1→b2 at t=10, long after the pulse passed: the glitch shows
	// at the output but the final value is unchanged.
	base, res := runFault(t, SET{At: 10, Width: 0.5}, Site{From: "b1", To: "b2", Pin: 0, Channel: true})
	got := Classify(base.Signals, res.Signals, []string{"o"}, []string{"b1", "b2"})
	if got != Propagated {
		t.Fatalf("outcome %v, want propagated; o=%v", got, res.Signals["o"])
	}
	if res.Signals["o"].Len() != base.Signals["o"].Len()+2 {
		t.Fatalf("glitch not visible at output: %v", res.Signals["o"])
	}
}

func TestSETBeyondHorizonMasked(t *testing.T) {
	base, res := runFault(t, SET{At: 100, Width: 0.5}, Site{From: "b1", To: "b2", Pin: 0, Channel: true})
	if got := Classify(base.Signals, res.Signals, []string{"o"}, []string{"b1", "b2"}); got != Masked {
		t.Fatalf("outcome %v, want masked", got)
	}
}

func TestSETJitterDeterministicPerSeed(t *testing.T) {
	c := pipeline(t)
	in := pipelineInputs()
	m := SET{At: 8, Width: 0.5, Jitter: 2}
	s := Site{From: "b1", To: "b2", Pin: 0, Channel: true}
	sig := func(seed int64) signal.Signal {
		_, fin, err := m.Instrument(c, s, in, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return fin[CtlInput]
	}
	if !sigEqual(sig(7), sig(7)) {
		t.Fatal("same seed produced different strike times")
	}
	if sigEqual(sig(7), sig(8)) {
		t.Fatal("different seeds produced identical strike times (jitter inert)")
	}
}

func TestStuckAtLatches(t *testing.T) {
	base, res := runFault(t, StuckAt{V: signal.High, From: 0}, Site{From: "i", To: "b1", Pin: 0})
	if got := Classify(base.Signals, res.Signals, []string{"o"}, []string{"b1", "b2"}); got != Latched {
		t.Fatalf("outcome %v, want latched", got)
	}
	if res.Signals["o"].Final() != signal.High {
		t.Fatalf("output not stuck high: %v", res.Signals["o"])
	}
}

func TestStuckAtZeroSuppressesPulse(t *testing.T) {
	base, res := runFault(t, StuckAt{V: signal.Low, From: 0}, Site{From: "i", To: "b1", Pin: 0})
	if !res.Signals["o"].IsZero() {
		t.Fatalf("output not suppressed: %v", res.Signals["o"])
	}
	if got := Classify(base.Signals, res.Signals, []string{"o"}, []string{"b1", "b2"}); got != Propagated {
		t.Fatalf("outcome %v, want propagated", got)
	}
}

func TestOverlayIntroducesNoSpuriousTransition(t *testing.T) {
	// An inactive stuck-at-1 (onset beyond the horizon) must leave every
	// original node signal bit-identical.
	base, res := runFault(t, StuckAt{V: signal.High, From: 100}, Site{From: "b1", To: "b2", Pin: 0, Channel: true})
	for _, n := range []string{"b1", "b2", "o"} {
		if !sigEqual(base.Signals[n], res.Signals[n]) {
			t.Fatalf("node %s disturbed by inactive fault: %v vs %v", n, base.Signals[n], res.Signals[n])
		}
	}
}

func TestDropSwallowsTransition(t *testing.T) {
	base, res := runFault(t, Drop{From: 0, Count: 1}, Site{From: "b1", To: "b2", Pin: 0, Channel: true})
	// The dropped rising edge leaves b2 low; the later falling delivery is
	// a value no-op, so the output never rises.
	if !res.Signals["o"].IsZero() {
		t.Fatalf("output not suppressed: %v", res.Signals["o"])
	}
	if got := Classify(base.Signals, res.Signals, []string{"o"}, []string{"b1", "b2"}); got != Propagated {
		t.Fatalf("outcome %v, want propagated", got)
	}
}

func TestDropSwallowsMatchingCancel(t *testing.T) {
	// An inertial channel cancels sub-threshold glitches. Dropping the
	// scheduled rise and then letting the inner instance cancel it must not
	// surface an unmatched Cancel to the simulator.
	inert, err := channel.NewInertial(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("drop-cancel")
	for _, err := range []error{
		c.AddInput("i"),
		c.AddOutput("o"),
		c.AddGate("b", gate.Buf(), signal.Low),
		c.Connect("i", "b", 0, inert),
		c.Connect("b", "o", 0, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Sub-threshold pulse: the inertial channel schedules the rise, then
	// cancels it on the fall.
	in := map[string]signal.Signal{"i": signal.MustPulse(1, 0.5)}
	m := Drop{From: 0, Count: 1}
	fc, fin, err := m.Instrument(c, Site{From: "i", To: "b", Pin: 0, Channel: true}, in, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(fc, fin, sim.Options{Horizon: 20})
	if err != nil {
		t.Fatalf("unmatched cancel surfaced: %v", err)
	}
	if !res.Signals["o"].IsZero() {
		t.Fatalf("output %v", res.Signals["o"])
	}
}

func TestDupEchoesTransitions(t *testing.T) {
	base, res := runFault(t, Dup{Gap: 0.2, Width: 0.1}, Site{From: "b1", To: "b2", Pin: 0, Channel: true})
	// Each of the 2 deliveries gains an opposite-value echo glitch.
	if want := base.Signals["o"].Len() + 4; res.Signals["o"].Len() != want {
		t.Fatalf("want %d output transitions, got %v", want, res.Signals["o"])
	}
	if got := Classify(base.Signals, res.Signals, []string{"o"}, []string{"b1", "b2"}); got != Propagated {
		t.Fatalf("outcome %v, want propagated", got)
	}
}

func TestPushoutDelaysOutput(t *testing.T) {
	base, res := runFault(t, DelayPushout{DUp: 0.5, DDown: 0.5}, Site{From: "b1", To: "b2", Pin: 0, Channel: true})
	b, f := base.Signals["o"], res.Signals["o"]
	if f.Len() != b.Len() {
		t.Fatalf("transition count changed: %v vs %v", b, f)
	}
	for i := 0; i < b.Len(); i++ {
		if got, want := f.Transition(i).At, b.Transition(i).At+0.5; got != want {
			t.Fatalf("transition %d at %g, want %g", i, got, want)
		}
	}
}

func TestWrapperRequiresChannel(t *testing.T) {
	c := pipeline(t)
	s := Site{From: "b2", To: "o", Pin: 0} // zero-delay port edge
	for _, m := range []Model{DelayPushout{DUp: 1}, Drop{Count: 1}, Dup{Gap: 1, Width: 1}} {
		if m.AppliesTo(s) {
			t.Errorf("%s claims to apply to a zero-delay edge", m)
		}
		if _, _, err := m.Instrument(c, s, pipelineInputs(), rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s instrumented a zero-delay edge", m)
		}
	}
}

func TestInstrumentDoesNotMutateOriginals(t *testing.T) {
	c := pipeline(t)
	in := pipelineInputs()
	nodesBefore := len(c.Nodes())
	edgesBefore := len(c.Edges())
	_, fin, err := SET{At: 2, Width: 0.5}.Instrument(c, Site{From: "i", To: "b1", Pin: 0, Channel: true}, in, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != nodesBefore || len(c.Edges()) != edgesBefore {
		t.Fatal("original circuit mutated")
	}
	if _, ok := in[CtlInput]; ok {
		t.Fatal("original stimulus map mutated")
	}
	if _, ok := fin[CtlInput]; !ok {
		t.Fatal("instrumented stimuli lack the control signal")
	}
}

func TestBadParametersRejected(t *testing.T) {
	c := pipeline(t)
	in := pipelineInputs()
	s := Site{From: "b1", To: "b2", Pin: 0, Channel: true}
	rng := rand.New(rand.NewSource(1))
	for _, m := range []Model{
		SET{At: -1, Width: 1},
		SET{At: 1, Width: 0},
		StuckAt{V: signal.High, From: -2},
		DelayPushout{DUp: -1},
		Drop{Count: 0},
		Dup{Gap: 0, Width: 1},
	} {
		if _, _, err := m.Instrument(c, s, in, rng); err == nil {
			t.Errorf("%s accepted invalid parameters", m)
		}
	}
}
