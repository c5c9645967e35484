package sim

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/gate"
	"involution/internal/signal"
)

var testExp = delay.ExpParams{Tau: 1, TP: 0.5, Vth: 0.6}

func pure(t *testing.T, d float64) channel.Model {
	t.Helper()
	m, err := channel.NewPure(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func involutionModel(t *testing.T, eta adversary.Eta, strat func() adversary.Strategy) channel.Model {
	t.Helper()
	ch := core.MustNew(delay.MustExp(testExp), eta)
	m, err := channel.NewInvolution(ch, strat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allNodes names every node of c, for runs that read internal nodes.
func allNodes(c *circuit.Circuit) []string {
	var names []string
	for _, n := range c.Nodes() {
		names = append(names, n.Name)
	}
	return names
}

// singleChannelCircuit builds i -> BUF g (through model m) -> o.
func singleChannelCircuit(t *testing.T, m channel.Model) *circuit.Circuit {
	t.Helper()
	c := circuit.New("single")
	for _, err := range []error{
		c.AddInput("i"),
		c.AddOutput("o"),
		c.AddGate("g", gate.Buf(), signal.Low),
		c.Connect("i", "g", 0, m),
		c.Connect("g", "o", 0, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestOptionsValidation(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 1))
	in := map[string]signal.Signal{"i": signal.Zero()}
	for _, h := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := Run(c, in, Options{Horizon: h}); err == nil {
			t.Errorf("horizon %g: want error", h)
		}
	}
}

func TestMissingAndUnknownStimulus(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 1))
	if _, err := Run(c, nil, Options{Horizon: 10}); err == nil {
		t.Error("missing stimulus must fail")
	}
	in := map[string]signal.Signal{"i": signal.Zero(), "bogus": signal.Zero()}
	if _, err := Run(c, in, Options{Horizon: 10}); err == nil {
		t.Error("unknown stimulus must fail")
	}
	in2 := map[string]signal.Signal{"i": signal.Zero(), "g": signal.Zero()}
	if _, err := Run(c, in2, Options{Horizon: 10}); err == nil {
		t.Error("stimulus on non-input node must fail")
	}
}

func TestPureDelayPropagation(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 2))
	in := signal.MustPulse(1, 3)
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 100, Record: []string{"i"}})
	if err != nil {
		t.Fatal(err)
	}
	want := signal.MustPulse(3, 3)
	if !res.Signals["o"].Equal(want, 1e-12) {
		t.Fatalf("o = %v want %v", res.Signals["o"], want)
	}
	// The input port echoes its stimulus.
	if !res.Signals["i"].Equal(in, 1e-12) {
		t.Fatalf("i = %v", res.Signals["i"])
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

func TestSimMatchesOfflineChannelApply(t *testing.T) {
	// Integration cross-check: a 1-channel circuit must reproduce the
	// offline channel function for strictly causal models.
	pureM := pure(t, 1.5)
	inertM, err := channel.NewInertial(2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	invM := involutionModel(t, adversary.Eta{}, nil)
	models := []channel.Model{pureM, inertM, invM}

	cfg := &quick.Config{MaxCount: 80}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(14)
		times := make([]float64, n)
		tt := 0.1 + r.Float64()
		for i := range times {
			times[i] = tt
			tt += 0.05 + 4*r.Float64()
		}
		in, err := signal.FromEdges(signal.Low, times...)
		if err != nil {
			return false
		}
		for _, m := range models {
			c := singleChannelCircuit(t, m)
			res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 1000})
			if err != nil {
				t.Log(err)
				return false
			}
			want, err := m.Apply(in)
			if err != nil {
				return false
			}
			if !res.Signals["o"].Equal(want, 1e-9) {
				t.Logf("model %v: sim %v offline %v in %v", m, res.Signals["o"], want, in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInverterChain(t *testing.T) {
	// 7-stage inverter chain with pure delays: output is the input shifted
	// by 7·D and inverted 7 times (odd → complemented).
	const stages = 7
	const d = 0.3
	c := circuit.New("chain")
	if err := c.AddInput("i"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddOutput("o"); err != nil {
		t.Fatal(err)
	}
	prev := "i"
	for k := 0; k < stages; k++ {
		name := string(rune('a' + k))
		init := signal.High
		if k%2 == 1 {
			init = signal.Low
		}
		if err := c.AddGate(name, gate.Not(), init); err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(prev, name, 0, pure(t, d)); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if err := c.Connect(prev, "o", 0, nil); err != nil {
		t.Fatal(err)
	}
	in := signal.MustPulse(1, 5)
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := in.Shift(stages * d)
	if err != nil {
		t.Fatal(err)
	}
	want := shifted.Invert()
	if !res.Signals["o"].Equal(want, 1e-9) {
		t.Fatalf("o = %v want %v", res.Signals["o"], want)
	}
}

func TestGateInitialMismatchTransitionsAtZero(t *testing.T) {
	// A NOT gate with initial output 0 whose input is initially 0 must
	// switch to 1 at time 0 (the gate's declared value holds only until 0).
	c := circuit.New("init")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	_ = c.AddGate("n", gate.Not(), signal.Low)
	_ = c.Connect("i", "n", 0, nil)
	_ = c.Connect("n", "o", 0, nil)
	res, err := Run(c, map[string]signal.Signal{"i": signal.Zero()}, Options{Horizon: 10, Record: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Signals["n"]
	if n.Initial() != signal.Low || n.Len() != 1 || n.Transition(0).At != 0 || n.Transition(0).To != signal.High {
		t.Fatalf("n = %v", n)
	}
}

func TestORFeedbackLoopLocks(t *testing.T) {
	// The storage loop of Fig. 5: OR gate fed back through an involution
	// channel. A long input pulse locks the loop at 1.
	c := circuit.New("loop")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	_ = c.AddGate("or", gate.Or(2), signal.Low)
	_ = c.Connect("i", "or", 0, nil)
	if err := c.Connect("or", "or", 1, involutionModel(t, adversary.Eta{}, nil)); err != nil {
		t.Fatal(err)
	}
	_ = c.Connect("or", "o", 0, nil)

	pair := delay.MustExp(testExp)
	long := signal.MustPulse(0, pair.UpLimit()*2)
	res, err := Run(c, map[string]signal.Signal{"i": long}, Options{Horizon: 200, Record: []string{"or"}})
	if err != nil {
		t.Fatal(err)
	}
	or := res.Signals["or"]
	if or.Len() != 1 || or.Transition(0).At != 0 || or.Final() != signal.High {
		t.Fatalf("loop must lock with a single rising transition at 0: %v", or)
	}

	// A short pulse leaves only the input pulse at the OR output (Lemma 4).
	dmin, _ := pair.DeltaMin()
	short := signal.MustPulse(0, (pair.UpLimit()-dmin)*0.5)
	res, err = Run(c, map[string]signal.Signal{"i": short}, Options{Horizon: 200, Record: []string{"or"}})
	if err != nil {
		t.Fatal(err)
	}
	or = res.Signals["or"]
	if or.Len() != 2 || or.Final() != signal.Low {
		t.Fatalf("loop must only echo the short pulse: %v", or)
	}
}

func TestRingOscillator(t *testing.T) {
	// A NOT gate fed back through a pure channel oscillates forever; the
	// horizon truncates the run and the period is 2·D.
	c := circuit.New("ring")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	_ = c.AddGate("n", gate.Nor(2), signal.Low)
	_ = c.Connect("i", "n", 0, nil)
	_ = c.Connect("n", "n", 1, pure(t, 0.5))
	_ = c.Connect("n", "o", 0, nil)
	res, err := Run(c, map[string]signal.Signal{"i": signal.Zero()}, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Signals["o"]
	if o.Len() < 15 {
		t.Fatalf("expected sustained oscillation, got %d transitions", o.Len())
	}
	for k := 0; k+1 < o.Len(); k++ {
		gap := o.Transition(k+1).At - o.Transition(k).At
		if math.Abs(gap-0.5) > 1e-9 {
			t.Fatalf("period gap %g at %d", gap, k)
		}
	}
}

func TestMaxEventsExhaustion(t *testing.T) {
	c := circuit.New("ring")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	_ = c.AddGate("n", gate.Nor(2), signal.Low)
	_ = c.Connect("i", "n", 0, nil)
	_ = c.Connect("n", "n", 1, pure(t, 0.5))
	_ = c.Connect("n", "o", 0, nil)
	_, err := Run(c, map[string]signal.Signal{"i": signal.Zero()}, Options{Horizon: 1e9, MaxEvents: 100})
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("want event-budget error, got %v", err)
	}
}

func TestHorizonTruncation(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 2))
	in := signal.MustPulse(1, 10) // fall at 11 -> output fall at 13
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Signals["o"]
	if o.Len() != 1 || o.Transition(0).To != signal.High {
		t.Fatalf("truncated output %v", o)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() (*Result, error) {
		seqStrat := func() adversary.Strategy {
			return adversary.Sequence{Etas: []float64{0.02, -0.02, 0.01, 0, -0.01, 0.02}}
		}
		c := circuit.New("loop")
		_ = c.AddInput("i")
		_ = c.AddOutput("o")
		_ = c.AddGate("or", gate.Or(2), signal.Low)
		_ = c.Connect("i", "or", 0, nil)
		_ = c.Connect("or", "or", 1, involutionModel(t, adversary.Eta{Plus: 0.02, Minus: 0.02}, seqStrat))
		_ = c.Connect("or", "o", 0, nil)
		return Run(c, map[string]signal.Signal{"i": signal.MustPulse(0, 1.2)}, Options{Horizon: 50, Record: []string{"i", "or"}})
	}
	r1, err1 := mk()
	r2, err2 := mk()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for name := range r1.Signals {
		if !r1.Signals[name].Equal(r2.Signals[name], 0) {
			t.Fatalf("nondeterministic signal at %q: %v vs %v", name, r1.Signals[name], r2.Signals[name])
		}
	}
}

func TestValidateFailurePropagates(t *testing.T) {
	c := circuit.New("bad")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	// o undriven.
	if _, err := Run(c, map[string]signal.Signal{"i": signal.Zero()}, Options{Horizon: 1}); err == nil {
		t.Fatal("invalid circuit must fail")
	}
}

// TestValidationFollowsEdits: Circuit.Validate remembers a success, so a
// circuit edited after a successful run must be validated again. A valid
// circuit has no undriven pin left, so no Connect can follow it directly;
// an AddGate comes first (undriven), then the Connects that drive it close
// a zero-delay loop.
func TestValidationFollowsEdits(t *testing.T) {
	c := circuit.New("edit")
	for _, err := range []error{
		c.AddInput("i"), c.AddGate("a", gate.Buf(), signal.Low), c.AddOutput("o"),
		c.Connect("i", "a", 0, nil), c.Connect("a", "o", 0, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	in := map[string]signal.Signal{"i": signal.MustPulse(1, 1)}
	run := func() error {
		_, err := Run(c, in, Options{Horizon: 10})
		return err
	}
	if err := run(); err != nil {
		t.Fatalf("valid circuit: %v", err)
	}
	if err := c.AddGate("b", gate.Buf(), signal.Low); err != nil {
		t.Fatal(err)
	}
	if err := run(); err == nil || !strings.Contains(err.Error(), `gate "b" pin 0 undriven`) {
		t.Fatalf("after AddGate of an undriven gate: err = %v", err)
	}
	if err := c.AddGate("d", gate.Buf(), signal.Low); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("b", "d", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("d", "b", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(); err == nil || !strings.Contains(err.Error(), "zero-delay cycle") {
		t.Fatalf("after closing a zero-delay loop: err = %v", err)
	}
}

// fanout4 drives four BUF gates a–d from one port through pure d=1
// channels; an XOR4 joins them again through pure d=2 channels and every
// gate has an output port, so each timestamp changes several nodes in one
// delta round.
func fanout4(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New("fanout4")
	steps := []error{c.AddInput("i"), c.AddGate("x", gate.Xor(4), signal.Low), c.AddOutput("ox")}
	for pin, g := range []string{"a", "b", "c", "d"} {
		steps = append(steps,
			c.AddGate(g, gate.Buf(), signal.Low), c.AddOutput("o"+g),
			c.Connect("i", g, 0, pure(t, 1)), c.Connect(g, "o"+g, 0, nil),
			c.Connect(g, "x", pin, pure(t, 2)))
	}
	steps = append(steps, c.Connect("x", "ox", 0, nil))
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestWatchReportIsDeterministic watches four gates that violate their
// monitors at the same timestamp: the reported node must be the same on
// every run — the first recorded, which follows the scheduling order.
func TestWatchReportIsDeterministic(t *testing.T) {
	c := fanout4(t)
	in := signal.MustPulse(1, 1)
	for run := 0; run < 200; run++ {
		watch := map[string]Monitor{}
		for _, g := range []string{"a", "b", "c", "d"} {
			watch[g] = MinPulseMonitor(5)
		}
		_, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 20, Watch: watch})
		var we *WatchError
		if !errors.As(err, &we) {
			t.Fatalf("run %d: want a WatchError, got %v", run, err)
		}
		if we.Node != "a" || we.At != 3 {
			t.Fatalf("run %d: watch reported %q at t=%g, want \"a\" at t=3", run, we.Node, we.At)
		}
	}
}
