package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// randomModel draws a channel model: pure, inertial, DDM, or an exp
// involution channel, either with η ≡ 0 or with a small η band under a
// seeded uniform adversary.
func randomModel(t *testing.T, r *rand.Rand) channel.Model {
	t.Helper()
	var m channel.Model
	var err error
	switch r.Intn(4) {
	case 0:
		m, err = channel.NewPure(0.2 + r.Float64())
	case 1:
		d := 0.5 + r.Float64()
		m, err = channel.NewInertial(d, d*(0.3+0.7*r.Float64()))
	case 2:
		b := channel.DDMBranch{TP0: 0.3 + r.Float64(), Tau: 0.2 + r.Float64(), T0: 0.2 * r.Float64()}
		m, err = channel.NewDDM(b, b)
	default:
		pair, perr := delay.Exp(delay.ExpParams{Tau: 0.3 + r.Float64(), TP: 0.2 + 0.5*r.Float64(), Vth: 0.3 + 0.4*r.Float64()})
		if perr != nil {
			t.Fatal(perr)
		}
		var eta adversary.Eta
		var strat func() adversary.Strategy
		if r.Intn(2) == 0 {
			eta = adversary.Eta{Plus: 0.05 * r.Float64(), Minus: 0.05 * r.Float64()}
			spec := adversary.Spec{Name: "uniform", Seed: r.Int63()}
			strat = func() adversary.Strategy {
				st, err := adversary.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
		}
		ch, cerr := core.New(pair, eta)
		if cerr != nil {
			t.Fatal(cerr)
		}
		m, err = channel.NewInvolution(ch, strat)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomDAG builds a random layered feed-forward circuit: a few input
// ports, two gate layers with random Boolean functions, random channel
// models on every edge, and one output port per last-layer gate.
func randomDAG(t *testing.T, r *rand.Rand) (*circuit.Circuit, []string) {
	t.Helper()
	c := circuit.New("fuzz")
	nIn := 1 + r.Intn(3)
	var prev []string
	for i := 0; i < nIn; i++ {
		name := fmt.Sprintf("i%d", i)
		if err := c.AddInput(name); err != nil {
			t.Fatal(err)
		}
		prev = append(prev, name)
	}
	gates := []func(int) gate.Func{gate.And, gate.Or, gate.Nand, gate.Nor, gate.Xor, gate.Xnor}
	var lastLayer []string
	for layer := 0; layer < 2; layer++ {
		n := 1 + r.Intn(3)
		var names []string
		for g := 0; g < n; g++ {
			arity := 1 + r.Intn(len(prev))
			fn := gates[r.Intn(len(gates))](arity)
			name := fmt.Sprintf("g%d_%d", layer, g)
			if err := c.AddGate(name, fn, signal.Value(r.Intn(2))); err != nil {
				t.Fatal(err)
			}
			pick := r.Perm(len(prev))
			for pin := 0; pin < arity; pin++ {
				if err := c.Connect(prev[pick[pin%len(pick)]], name, pin, randomModel(t, r)); err != nil {
					t.Fatal(err)
				}
			}
			names = append(names, name)
		}
		prev = names
		lastLayer = names
	}
	for i, g := range lastLayer {
		name := fmt.Sprintf("o%d", i)
		if err := c.AddOutput(name); err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(g, name, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	return c, lastLayer
}

func randomStimuli(r *rand.Rand, c *circuit.Circuit) map[string]signal.Signal {
	in := map[string]signal.Signal{}
	for _, name := range c.Inputs() {
		n := r.Intn(8)
		times := make([]float64, n)
		t := r.Float64()
		for i := range times {
			times[i] = t
			t += 0.1 + 2*r.Float64()
		}
		s, _ := signal.FromEdges(signal.Value(r.Intn(2)), times...)
		in[name] = s
	}
	return in
}

func TestQuickRandomDAGSteadyStateAndDeterminism(t *testing.T) {
	// Properties over random feed-forward circuits with mixed channels:
	// 1. the simulation terminates without error,
	// 2. two runs are bit-identical (determinism),
	// 3. the final value of every gate equals its Boolean function applied
	//    to the final values of its drivers (combinational steady state),
	// 4. recording changes nothing but the result's node set: a default
	//    run and a run recording a random subset of the nodes give the
	//    same statistics, and every node either records matches the run
	//    that records all nodes.
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, _ := randomDAG(t, r)
		in := randomStimuli(r, c)
		all := allNodes(c)
		res1, err := Run(c, in, Options{Horizon: 200, Record: all})
		if err != nil {
			t.Log(err)
			return false
		}
		res2, err := Run(c, in, Options{Horizon: 200, Record: all})
		if err != nil {
			return false
		}
		if len(res1.Signals) != len(all) {
			t.Logf("recorded %d of %d nodes", len(res1.Signals), len(all))
			return false
		}
		for name := range res1.Signals {
			if !res1.Signals[name].Equal(res2.Signals[name], 0) {
				t.Logf("nondeterminism at %s", name)
				return false
			}
		}
		var subset []string
		for _, name := range all {
			if r.Intn(2) == 0 {
				subset = append(subset, name)
			}
		}
		for _, record := range [][]string{nil, subset} {
			res, err := Run(c, in, Options{Horizon: 200, Record: record})
			if err != nil {
				t.Log(err)
				return false
			}
			want := map[string]bool{}
			for _, name := range append(c.Outputs(), record...) {
				want[name] = true
			}
			if len(res.Signals) != len(want) {
				t.Logf("record %v: got %d signals, want %d", record, len(res.Signals), len(want))
				return false
			}
			for name := range want {
				if !res.Signals[name].Equal(res1.Signals[name], 0) {
					t.Logf("record %v: node %s differs from the all-nodes run", record, name)
					return false
				}
			}
			st, st1 := res.Stats, res1.Stats
			st.Duration, st1.Duration = 0, 0
			if res.Events != res1.Events || !reflect.DeepEqual(st, st1) {
				t.Logf("record %v: stats %+v, all-nodes run %+v", record, st, st1)
				return false
			}
		}
		// Steady state: every gate's final value is consistent.
		for _, n := range c.Nodes() {
			if n.Kind != circuit.KindGate {
				continue
			}
			pins := make([]signal.Value, n.Fn.Arity)
			for _, e := range c.Edges() {
				if e.To == n.Name {
					pins[e.Pin] = res1.Signals[e.From].Final()
				}
			}
			if got := res1.Signals[n.Name].Final(); got != n.Fn.Eval(pins) {
				t.Logf("gate %s (%s): final %v, eval %v", n.Name, n.Fn.Name, got, n.Fn.Eval(pins))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzSimRun runs small random circuits on random stimuli and checks what
// every run must satisfy: each recorded signal is well formed (S1–S3:
// finite non-negative, strictly increasing, alternating transitions, none
// past the horizon), the stats add up, and a single-channel circuit
// reproduces channel.Run of its model up to the horizon.
func FuzzSimRun(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1 << 40} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, single bool) {
		r := rand.New(rand.NewSource(seed))
		horizon := 5 + 40*r.Float64()
		if single {
			m := randomModel(t, r)
			times := make([]float64, r.Intn(12))
			at := r.Float64()
			for i := range times {
				times[i] = at
				at += 0.05 + 3*r.Float64()
			}
			in, err := signal.FromEdges(signal.Low, times...) // the BUF starts low
			if err != nil {
				t.Fatal(err)
			}
			res := runChecked(t, singleChannelCircuit(t, m), map[string]signal.Signal{"i": in}, horizon)
			want, err := channel.Run(m, in)
			if err != nil {
				t.Fatal(err)
			}
			want = want.Before(math.Nextafter(horizon, math.Inf(1)))
			if got := res.Signals["o"]; !got.Equal(want, 0) {
				t.Fatalf("model %v on %v: sim %v, channel.Run %v", m, in, got, want)
			}
			return
		}
		c, _ := randomDAG(t, r)
		runChecked(t, c, randomStimuli(r, c), horizon)
	})
}

// runChecked runs the circuit, recording every node, and checks the
// per-run invariants.
func runChecked(t *testing.T, c *circuit.Circuit, in map[string]signal.Signal, horizon float64) *Result {
	t.Helper()
	res, err := Run(c, in, Options{Horizon: horizon, Record: allNodes(c)})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Delivered != int64(res.Events) || st.Scheduled < st.Delivered+st.Canceled {
		t.Fatalf("stats do not add up: %d events, %+v", res.Events, st)
	}
	for name, sig := range res.Signals {
		if _, err := signal.New(sig.Initial(), sig.Transitions()...); err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
		if n := sig.Len(); n > 0 && sig.Transition(n-1).At > horizon {
			t.Fatalf("node %s: transition at %g past the horizon %g", name, sig.Transition(n-1).At, horizon)
		}
	}
	return res
}
