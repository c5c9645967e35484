package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/signal"
)

// evilModel is a channel model whose online instance emits whatever delivery
// time the test dictates — including NaN, ±Inf and times in the past.
type evilModel struct {
	at func(t float64) float64
}

func (m evilModel) Apply(s signal.Signal) (signal.Signal, error) { return s, nil }
func (m evilModel) String() string                               { return "evil" }
func (m evilModel) NewInstance() channel.Instance                { return evilInstance{m.at} }

type evilInstance struct{ at func(t float64) float64 }

func (ei evilInstance) Input(t float64, to signal.Value) channel.Action {
	return channel.Action{Schedule: true, At: ei.at(t), To: to}
}

// panicModel panics inside the online instance — a stand-in for a buggy
// third-party channel model.
type panicModel struct{}

func (panicModel) Apply(s signal.Signal) (signal.Signal, error) { return s, nil }
func (panicModel) String() string                               { return "panic" }
func (panicModel) NewInstance() channel.Instance                { return panicInstance{} }

type panicInstance struct{}

func (panicInstance) Input(float64, signal.Value) channel.Action {
	panic("injected channel panic")
}

func evilCircuit(t *testing.T, m channel.Model) *circuit.Circuit {
	t.Helper()
	c := circuit.New("evil")
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

func runEvil(t *testing.T, m channel.Model, opts Options) error {
	t.Helper()
	c := evilCircuit(t, m)
	in := signal.MustPulse(1, 2)
	_, err := Run(c, map[string]signal.Signal{"i": in}, opts)
	return err
}

func TestBadEventTimeAborts(t *testing.T) {
	cases := map[string]func(t float64) float64{
		"nan":         func(float64) float64 { return math.NaN() },
		"plus-inf":    func(float64) float64 { return math.Inf(1) },
		"minus-inf":   func(float64) float64 { return math.Inf(-1) },
		"time-travel": func(now float64) float64 { return now - 1 },
	}
	for name, at := range cases {
		t.Run(name, func(t *testing.T) {
			err := runEvil(t, evilModel{at: at}, Options{Horizon: 100})
			if err == nil {
				t.Fatal("want abort, got nil error")
			}
			if !errors.Is(err, ErrBadEventTime) {
				t.Fatalf("errors.Is(ErrBadEventTime) = false for %v", err)
			}
			var ab *AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("not an AbortError: %v", err)
			}
			if ab.Class() != ClassBadTime {
				t.Fatalf("class %q, want %q", ab.Class(), ClassBadTime)
			}
			if ab.Stats.Scheduled == 0 {
				t.Fatal("partial stats missing: no scheduled events recorded")
			}
			var te *EventTimeError
			if !errors.As(err, &te) {
				t.Fatalf("no EventTimeError in %v", err)
			}
			if te.Node != "g" || te.Channel == "" {
				t.Fatalf("error context: node %q channel %q", te.Node, te.Channel)
			}
		})
	}
}

func TestBadStimulusTimeAborts(t *testing.T) {
	// A stimulus signal cannot normally carry NaN (signal.New validates),
	// so drive the validation directly through the push path: a channel
	// that emits NaN on the very first input transition exercises the same
	// guard; here we additionally check the stimulus-side error shape via
	// an input signal constructed to be valid but scheduled against a
	// poisoned queue — covered by the channel case above. This test pins
	// that time-travel relative to `now` is rejected even at t=0 outputs.
	err := runEvil(t, evilModel{at: func(now float64) float64 { return now - 0.5 }}, Options{Horizon: 10})
	if !errors.Is(err, ErrBadEventTime) {
		t.Fatalf("want ErrBadEventTime, got %v", err)
	}
}

func TestChannelPanicRecoveredAsAbort(t *testing.T) {
	err := runEvil(t, panicModel{}, Options{Horizon: 100})
	if err == nil {
		t.Fatal("want abort, got nil")
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("not an AbortError: %v", err)
	}
	if ab.Class() != ClassPanic {
		t.Fatalf("class %q, want %q", ab.Class(), ClassPanic)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no PanicError in %v", err)
	}
	if pe.Value != "injected channel panic" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if !strings.Contains(pe.Stack, "Input") {
		t.Fatalf("stack does not name the panicking call:\n%s", pe.Stack)
	}
}

// oscillator builds a free-running inverter loop through the given channel:
// an endless event source for budget/deadline tests.
func oscillator(t *testing.T) *circuit.Circuit {
	t.Helper()
	pure, err := channel.NewPure(0.25)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("osc")
	for _, err := range []error{
		c.AddOutput("o"),
		c.AddGate("n", gate.Not(), signal.High),
		c.Connect("n", "n", 0, pure),
		c.Connect("n", "o", 0, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestEventBudgetClass(t *testing.T) {
	c := oscillator(t)
	_, err := Run(c, nil, Options{Horizon: 1e9, MaxEvents: 100})
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("want ErrEventBudget, got %v", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Class() != ClassBudget {
		t.Fatalf("class: %v", err)
	}
	if ab.Stats.Delivered == 0 {
		t.Fatal("partial stats missing")
	}
}

func TestDeadlineAborts(t *testing.T) {
	c := oscillator(t)
	start := time.Now()
	_, err := Run(c, nil, Options{Horizon: 1e15, MaxEvents: 1 << 30, Deadline: 30 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Class() != ClassDeadline {
		t.Fatalf("class: %v", err)
	}
	if ab.Stats.Delivered == 0 {
		t.Fatal("partial stats missing")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

func TestDeadlineZeroMeansNone(t *testing.T) {
	c := oscillator(t)
	_, err := Run(c, nil, Options{Horizon: 10})
	if err != nil {
		t.Fatalf("horizon-bounded run failed: %v", err)
	}
}

func TestAbortClassOther(t *testing.T) {
	e := &AbortError{Err: errors.New("mystery")}
	if got := e.Class(); got != ClassOther {
		t.Fatalf("class %q", got)
	}
}

func TestWatchAbortClass(t *testing.T) {
	pure, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := evilCircuit(t, pure)
	in := signal.MustPulse(1, 0.5)
	_, err = Run(c, map[string]signal.Signal{"i": in}, Options{
		Horizon: 100,
		Watch:   map[string]Monitor{"g": MinPulseMonitor(2)},
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Class() != ClassWatch {
		t.Fatalf("watch class: %v", err)
	}
}

// extraModel schedules an echo pulse via Action.Extra after each primary
// transition — the mechanism fault duplicate wrappers rely on.
type extraModel struct{ d, gap, w float64 }

func (m extraModel) Apply(s signal.Signal) (signal.Signal, error) { return s, nil }
func (m extraModel) String() string                               { return "extra" }
func (m extraModel) NewInstance() channel.Instance                { return &extraInstance{m: m} }

type extraInstance struct{ m extraModel }

func (ei *extraInstance) Input(t float64, to signal.Value) channel.Action {
	at := t + ei.m.d
	return channel.Action{
		Schedule: true, At: at, To: to,
		Extra: []signal.Transition{
			{At: at + ei.m.gap, To: to.Not()},
			{At: at + ei.m.gap + ei.m.w, To: to},
		},
	}
}

func TestActionExtraSchedulesEcho(t *testing.T) {
	c := evilCircuit(t, extraModel{d: 1, gap: 0.2, w: 0.1})
	in, err := signal.New(signal.Low, signal.Transition{At: 1, To: signal.High})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 10, Record: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Signals["g"]
	// Rising at 2, echo pulse: fall at 2.2, rise at 2.3.
	if g.Len() != 3 {
		t.Fatalf("want 3 transitions (primary + echo), got %v", g)
	}
	if g.Final() != signal.High {
		t.Fatalf("final %v", g.Final())
	}
}
