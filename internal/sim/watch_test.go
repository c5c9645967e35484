package sim

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/signal"
)

func TestWatchUnknownNode(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 1))
	_, err := Run(c, map[string]signal.Signal{"i": signal.Zero()},
		Options{Horizon: 10, Watch: map[string]Monitor{"zz": func(float64, signal.Value) error { return nil }}})
	if err == nil {
		t.Fatal("unknown watch node must fail")
	}
}

func TestRecordSelectsSignals(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 1))
	in := map[string]signal.Signal{"i": signal.MustPulse(1, 3)}
	nop := func(float64, signal.Value) error { return nil }
	for _, tc := range []struct {
		opts Options
		want []string
	}{
		{Options{Horizon: 10}, []string{"o"}},
		{Options{Horizon: 10, Watch: map[string]Monitor{"g": nop}}, []string{"g", "o"}},
		{Options{Horizon: 10, Record: []string{"i"}}, []string{"i", "o"}},
		{Options{Horizon: 10, Record: []string{"o", "g"}, Watch: map[string]Monitor{"g": nop}}, []string{"g", "o"}},
	} {
		res, err := Run(c, in, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for name := range res.Signals {
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("record %v, watch %d: signals of %v, want %v", tc.opts.Record, len(tc.opts.Watch), got, tc.want)
		}
	}
	if _, err := Run(c, in, Options{Horizon: 10, Record: []string{"zz"}}); err == nil || !strings.Contains(err.Error(), `"zz"`) {
		t.Fatalf("unknown record node: err = %v", err)
	}
}

// TestUnrecordedNodeAnnihilates checks that an unrecorded internal node
// still annihilates a same-time pulse: a = i AND NOT i rises and falls
// again within the delta cycles of each rising input edge.
func TestUnrecordedNodeAnnihilates(t *testing.T) {
	c := circuit.New("hazard")
	for _, err := range []error{
		c.AddInput("i"),
		c.AddOutput("o"),
		c.AddGate("n", gate.Not(), signal.High),
		c.AddGate("a", gate.And(2), signal.Low),
		c.AddGate("b", gate.Buf(), signal.Low),
		c.Connect("i", "n", 0, nil),
		c.Connect("i", "a", 0, nil),
		c.Connect("n", "a", 1, nil),
		c.Connect("a", "b", 0, pure(t, 1)),
		c.Connect("b", "o", 0, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	in := map[string]signal.Signal{"i": signal.MustPulse(1, 2)}
	all, err := Run(c, in, Options{Horizon: 10, Record: allNodes(c)})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run(c, in, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.Annihilated == 0 || !all.Signals["a"].IsZero() {
		t.Fatalf("a = %v with %d annihilations, want the hazard annihilated", all.Signals["a"], all.Stats.Annihilated)
	}
	all.Stats.Duration, def.Stats.Duration = 0, 0
	if !reflect.DeepEqual(all.Stats, def.Stats) || !all.Signals["o"].Equal(def.Signals["o"], 0) {
		t.Fatalf("default run: o = %v, %+v; all nodes recorded: o = %v, %+v",
			def.Signals["o"], def.Stats, all.Signals["o"], all.Stats)
	}
}

func TestWatchObservesTransitions(t *testing.T) {
	c := singleChannelCircuit(t, pure(t, 2))
	var seen []float64
	mon := func(tt float64, v signal.Value) error {
		seen = append(seen, tt)
		return nil
	}
	in := signal.MustPulse(1, 3)
	if _, err := Run(c, map[string]signal.Signal{"i": in},
		Options{Horizon: 100, Watch: map[string]Monitor{"o": mon}}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 6 {
		t.Fatalf("monitored transitions %v", seen)
	}
}

func TestWatchAbortsRun(t *testing.T) {
	// A ring oscillator watched by a monitor that rejects everything after
	// the third transition: the run aborts early with a WatchError.
	c := circuit.New("ring")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	_ = c.AddGate("n", gate.Nor(2), signal.Low)
	_ = c.Connect("i", "n", 0, nil)
	_ = c.Connect("n", "n", 1, pure(t, 0.5))
	_ = c.Connect("n", "o", 0, nil)
	count := 0
	boom := errors.New("too many transitions")
	mon := func(float64, signal.Value) error {
		count++
		if count > 3 {
			return boom
		}
		return nil
	}
	_, err := Run(c, map[string]signal.Signal{"i": signal.Zero()},
		Options{Horizon: 1e6, MaxEvents: 1 << 24, Watch: map[string]Monitor{"o": mon}})
	var we *WatchError
	if !errors.As(err, &we) {
		t.Fatalf("want WatchError, got %v", err)
	}
	if we.Node != "o" || !errors.Is(err, boom) {
		t.Fatalf("wrong watch error: %+v", we)
	}
	if count != 4 {
		t.Fatalf("monitor called %d times", count)
	}
}

func TestMinPulseMonitor(t *testing.T) {
	// Drive a fast train through a pure channel and require ≥ 1-wide
	// pulses at the output: the monitor must fire.
	c := singleChannelCircuit(t, pure(t, 1))
	in, err := signal.Train(1, 0.2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(c, map[string]signal.Signal{"i": in},
		Options{Horizon: 100, Watch: map[string]Monitor{"o": MinPulseMonitor(1.0)}})
	var we *WatchError
	if !errors.As(err, &we) {
		t.Fatalf("want WatchError, got %v", err)
	}
	// A wide train passes.
	in2, err := signal.Train(1, 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, map[string]signal.Signal{"i": in2},
		Options{Horizon: 100, Watch: map[string]Monitor{"o": MinPulseMonitor(1.0)}}); err != nil {
		t.Fatal(err)
	}
}

func TestWatchSPFOutputOnline(t *testing.T) {
	// Online F4 on the SPF-like loop output: the high-threshold behavior
	// keeps the watched output runt-free while the loop oscillates.
	inert, err := channel.NewInertial(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("loop")
	_ = c.AddInput("i")
	_ = c.AddOutput("o")
	_ = c.AddGate("or", gate.Or(2), signal.Low)
	_ = c.Connect("i", "or", 0, nil)
	_ = c.Connect("or", "or", 1, inert)
	_ = c.Connect("or", "o", 0, nil)
	if _, err := Run(c, map[string]signal.Signal{"i": signal.MustPulse(0, 3)},
		Options{Horizon: 50, Watch: map[string]Monitor{"o": MinPulseMonitor(0.5)}}); err != nil {
		t.Fatal(err)
	}
}
