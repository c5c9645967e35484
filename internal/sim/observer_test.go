package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/signal"
)

// recorder is a test Observer that logs every callback.
type recorder struct {
	scheduled, delivered, canceled []Event
	deltas                         []int
	annihilations                  []string
}

func (r *recorder) EventScheduled(e Event)          { r.scheduled = append(r.scheduled, e) }
func (r *recorder) EventDelivered(e Event)          { r.delivered = append(r.delivered, e) }
func (r *recorder) EventCanceled(e Event)           { r.canceled = append(r.canceled, e) }
func (r *recorder) DeltaCycleDone(t float64, n int) { r.deltas = append(r.deltas, n) }
func (r *recorder) Annihilation(node string, _ float64) {
	r.annihilations = append(r.annihilations, node)
}

// bufCircuit is a buffer behind one channel: i -> [ch] -> b -> o.
func bufCircuit(t testing.TB, m channel.Model) *circuit.Circuit {
	t.Helper()
	c := circuit.New("buf")
	if err := c.AddInput("i"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddOutput("o"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddGate("b", gate.Buf(), signal.Low); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("i", "b", 0, m); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("b", "o", 0, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestObserverAndStatsPureDelay(t *testing.T) {
	pure, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := bufCircuit(t, pure)
	in, err := signal.FromEdges(signal.Low, 1, 5, 10, 14)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 50, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if int(st.Delivered) != res.Events {
		t.Fatalf("Delivered %d != Events %d", st.Delivered, res.Events)
	}
	// 4 stimuli + 4 channel outputs, none canceled.
	if st.Scheduled != 8 || st.Canceled != 0 || st.Delivered != 8 {
		t.Fatalf("stats %+v", st)
	}
	if len(rec.scheduled) != 8 || len(rec.delivered) != 8 || len(rec.canceled) != 0 {
		t.Fatalf("observer saw %d/%d/%d sched/deliv/cancel",
			len(rec.scheduled), len(rec.delivered), len(rec.canceled))
	}
	// Channel schedules carry the edge label; stimuli don't.
	var labeled int
	for _, e := range rec.scheduled {
		if e.Channel != "" {
			if e.Channel != "i→b/0" {
				t.Fatalf("channel label %q", e.Channel)
			}
			labeled++
		}
	}
	if labeled != 4 {
		t.Fatalf("labeled schedules = %d, want 4", labeled)
	}
	if st.QueueHighWater < 4 {
		t.Fatalf("queue high water %d, want ≥ 4 (stimuli pre-scheduled)", st.QueueHighWater)
	}
	// Every timestamp stabilizes; histogram total must equal DeltaCycles.
	var sum int64
	for _, n := range st.DeltaRounds {
		sum += n
	}
	if sum != st.DeltaCycles || st.DeltaCycles != int64(len(rec.deltas)) {
		t.Fatalf("delta histogram sum %d, cycles %d, observer %d", sum, st.DeltaCycles, len(rec.deltas))
	}
	if st.MaxDeltaRounds < 1 {
		t.Fatalf("max delta rounds %d", st.MaxDeltaRounds)
	}
	if st.Duration <= 0 {
		t.Fatal("duration not stamped")
	}
	if st.CancelsByChannel != nil {
		t.Fatalf("no cancels expected, got %v", st.CancelsByChannel)
	}
}

func TestStatsCancellation(t *testing.T) {
	// Inertial channel with suppression window 1: a 0.5-wide pulse is
	// swallowed, canceling its rising output.
	inert, err := channel.NewInertial(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := bufCircuit(t, inert)
	in, err := signal.FromEdges(signal.Low, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 50, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Canceled != 1 || len(rec.canceled) != 1 {
		t.Fatalf("canceled %d (observer %d), want 1", st.Canceled, len(rec.canceled))
	}
	if got := st.CancelsByChannel["i→b/0"]; got != 1 {
		t.Fatalf("CancelsByChannel = %v", st.CancelsByChannel)
	}
	if rec.canceled[0].Channel != "i→b/0" {
		t.Fatalf("cancel label %q", rec.canceled[0].Channel)
	}
	// The buffer output must stay low (pulse filtered).
	if !res.Signals["o"].IsZero() {
		t.Fatalf("output %v, want constant low", res.Signals["o"])
	}
}

func TestAbortErrorCarriesPartialStats(t *testing.T) {
	pure, err := channel.NewPure(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Free-running ring oscillator with a tiny event budget.
	c := circuit.New("ring")
	if err := c.AddInput("i"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddOutput("o"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddGate("n", gate.Nor(2), signal.Low); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("i", "n", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("n", "n", 1, pure); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("n", "o", 0, nil); err != nil {
		t.Fatal(err)
	}
	_, err = Run(c, map[string]signal.Signal{"i": signal.Zero()}, Options{Horizon: 1e6, MaxEvents: 100})
	if err == nil {
		t.Fatal("want abort")
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %T: %v", err, err)
	}
	if !strings.Contains(ae.Error(), "event budget") {
		t.Fatalf("message %q", ae.Error())
	}
	if ae.Stats.Delivered < 100 || ae.Stats.Duration <= 0 {
		t.Fatalf("partial stats %+v", ae.Stats)
	}
}

func TestAbortErrorWrapsWatchError(t *testing.T) {
	pure, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := bufCircuit(t, pure)
	in, err := signal.FromEdges(signal.Low, 1, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(c, map[string]signal.Signal{"i": in}, Options{
		Horizon: 50,
		Watch:   map[string]Monitor{"o": MinPulseMonitor(0.5)},
	})
	var we *WatchError
	if !errors.As(err, &we) {
		t.Fatalf("WatchError not reachable through AbortError: %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if ae.Stats.Delivered == 0 {
		t.Fatalf("partial stats empty: %+v", ae.Stats)
	}
}

func TestStatsAnnihilation(t *testing.T) {
	// Two pure channels of identical delay into an OR: the input's rise
	// reaches both pins at the same timestamp; the gate output records one
	// transition, and the second same-time evaluation is a no-op — build
	// instead a gate whose inputs flip opposite ways simultaneously so the
	// output glitches by a zero-width pulse that annihilates.
	p1, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("annih")
	if err := c.AddInput("i"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddOutput("o"); err != nil {
		t.Fatal(err)
	}
	// XOR of the signal with its equally-delayed copy: both pins change at
	// the same instant, and the delta engine sees intermediate states.
	if err := c.AddGate("x", gate.Xor(2), signal.Low); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("i", "x", 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("i", "x", 1, p1); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("x", "o", 0, nil); err != nil {
		t.Fatal(err)
	}
	in, err := signal.FromEdges(signal.Low, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	res, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 20, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Signals["o"].IsZero() {
		t.Fatalf("XOR of equal signals must be constant low, got %v", res.Signals["o"])
	}
	if res.Stats.Annihilated != int64(len(rec.annihilations)) {
		t.Fatalf("stats %d != observer %d", res.Stats.Annihilated, len(rec.annihilations))
	}
}

func TestObserversFanOut(t *testing.T) {
	pure, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := bufCircuit(t, pure)
	in, err := signal.FromEdges(signal.Low, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &recorder{}, &recorder{}
	if _, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 20, Observer: Observers{a, b}}); err != nil {
		t.Fatal(err)
	}
	if len(a.delivered) == 0 || len(a.delivered) != len(b.delivered) || len(a.deltas) != len(b.deltas) {
		t.Fatalf("fan-out mismatch: %d/%d delivered, %d/%d deltas",
			len(a.delivered), len(b.delivered), len(a.deltas), len(b.deltas))
	}
}

// sequence is a test Observer that logs every callback, in order, as one
// line each.
type sequence []string

func (s *sequence) EventScheduled(e Event) { *s = append(*s, fmt.Sprintf("sched %+v", e)) }
func (s *sequence) EventDelivered(e Event) { *s = append(*s, fmt.Sprintf("deliv %+v", e)) }
func (s *sequence) EventCanceled(e Event)  { *s = append(*s, fmt.Sprintf("cancel %+v", e)) }
func (s *sequence) DeltaCycleDone(t float64, n int) {
	*s = append(*s, fmt.Sprintf("delta %g %d", t, n))
}
func (s *sequence) Annihilation(node string, t float64) {
	*s = append(*s, fmt.Sprintf("annih %s %g", node, t))
}

// TestObserverSequenceIsDeterministic checks that repeated runs make the
// same observer callbacks in the same order on a circuit where several
// nodes change in each delta round.
func TestObserverSequenceIsDeterministic(t *testing.T) {
	c := fanout4(t)
	in := signal.MustNew(signal.Low, signal.Transition{At: 1, To: signal.High},
		signal.Transition{At: 1.5, To: signal.Low}, signal.Transition{At: 4, To: signal.High})
	var first sequence
	for run := 0; run < 50; run++ {
		var seq sequence
		if _, err := Run(c, map[string]signal.Signal{"i": in}, Options{Horizon: 20, Observer: &seq}); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = seq
			continue
		}
		if got, want := strings.Join(seq, "\n"), strings.Join(first, "\n"); got != want {
			t.Fatalf("run %d: callback sequence differs from run 0:\n%s\nwant:\n%s", run, got, want)
		}
	}
	if len(first) < 30 {
		t.Fatalf("only %d callbacks recorded", len(first))
	}
}
