package signal

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueNot(t *testing.T) {
	if Low.Not() != High || High.Not() != Low {
		t.Fatalf("Not: got %v %v", Low.Not(), High.Not())
	}
	if Low.String() != "0" || High.String() != "1" {
		t.Fatalf("String: got %q %q", Low.String(), High.String())
	}
}

func TestNewValid(t *testing.T) {
	s, err := New(Low, Transition{1, High}, Transition{2, Low}, Transition{3.5, High})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Initial() != Low || s.Final() != High {
		t.Fatalf("unexpected signal %v", s)
	}
}

func TestNewRejectsNegativeTime(t *testing.T) {
	if _, err := New(Low, Transition{-1, High}); err == nil {
		t.Fatal("want error for negative time (S1)")
	}
}

func TestNewRejectsNonIncreasing(t *testing.T) {
	if _, err := New(Low, Transition{2, High}, Transition{2, Low}); err == nil {
		t.Fatal("want error for equal times (S2)")
	}
	if _, err := New(Low, Transition{2, High}, Transition{1, Low}); err == nil {
		t.Fatal("want error for decreasing times (S2)")
	}
}

func TestNewRejectsNonAlternating(t *testing.T) {
	if _, err := New(Low, Transition{1, Low}); err == nil {
		t.Fatal("want error: first transition must invert initial value")
	}
	if _, err := New(Low, Transition{1, High}, Transition{2, High}); err == nil {
		t.Fatal("want error: consecutive transitions to same value")
	}
}

func TestNewRejectsNonFinite(t *testing.T) {
	if _, err := New(Low, Transition{math.NaN(), High}); err == nil {
		t.Fatal("want error for NaN time")
	}
	if _, err := New(Low, Transition{math.Inf(1), High}); err == nil {
		t.Fatal("want error for +Inf time")
	}
}

func TestFromEdges(t *testing.T) {
	s, err := FromEdges(Low, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(Low, Transition{1, High}, Transition{2, Low}, Transition{3, High})
	if !s.Equal(want, 0) {
		t.Fatalf("got %v want %v", s, want)
	}
}

func TestAt(t *testing.T) {
	s := MustNew(Low, Transition{1, High}, Transition{2, Low})
	cases := []struct {
		t    float64
		want Value
	}{
		{-5, Low}, {0, Low}, {0.999, Low}, {1, High}, {1.5, High}, {2, Low}, {100, Low},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%g) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestConstSignals(t *testing.T) {
	if !Zero().IsZero() {
		t.Fatal("Zero() must be zero")
	}
	one := Const(High)
	if v, ok := one.IsConst(); !ok || v != High {
		t.Fatalf("Const(High): got %v %v", v, ok)
	}
	if one.IsZero() {
		t.Fatal("Const(High) must not be zero")
	}
	if Zero().At(42) != Low || one.At(42) != High {
		t.Fatal("const trace evaluation wrong")
	}
}

func TestPulse(t *testing.T) {
	p := MustPulse(2, 3)
	start, width, ok := p.IsPulse()
	if !ok || start != 2 || width != 3 {
		t.Fatalf("IsPulse: %v %v %v", start, width, ok)
	}
	if _, err := Pulse(1, 0); err == nil {
		t.Fatal("want error for zero-width pulse")
	}
	if _, err := Pulse(1, -1); err == nil {
		t.Fatal("want error for negative-width pulse")
	}
	if _, _, ok := Zero().IsPulse(); ok {
		t.Fatal("zero signal is not a pulse")
	}
	if _, _, ok := Const(High).IsPulse(); ok {
		t.Fatal("constant-one signal is not a pulse")
	}
}

func TestTrain(t *testing.T) {
	s, err := Train(1, 0.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatalf("want 6 transitions, got %d", s.Len())
	}
	pulses := s.Pulses()
	if len(pulses) != 3 {
		t.Fatalf("want 3 pulses, got %d", len(pulses))
	}
	for i, p := range pulses {
		if math.Abs(p.Start-(1+2*float64(i))) > 1e-12 || math.Abs(p.Len()-0.5) > 1e-12 {
			t.Errorf("pulse %d: start %g len %g", i, p.Start, p.Len())
		}
	}
	if _, err := Train(0, 2, 1, 3); err == nil {
		t.Fatal("want error when period <= upTime")
	}
}

func TestInvert(t *testing.T) {
	s := MustNew(Low, Transition{1, High}, Transition{2, Low})
	inv := s.Invert()
	if inv.Initial() != High || inv.At(1.5) != Low || inv.At(3) != High {
		t.Fatalf("Invert wrong: %v", inv)
	}
	if !inv.Invert().Equal(s, 0) {
		t.Fatal("double inversion must be identity")
	}
}

func TestShift(t *testing.T) {
	s := MustNew(Low, Transition{1, High}, Transition{2, Low})
	sh, err := s.Shift(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Transition(0).At != 2.5 || sh.Transition(1).At != 3.5 {
		t.Fatalf("Shift wrong: %v", sh)
	}
	if _, err := s.Shift(-2); err == nil {
		t.Fatal("want error shifting before time 0")
	}
	if back, err := sh.Shift(-1.5); err != nil || !back.Equal(s, 1e-12) {
		t.Fatalf("negative shift within bounds must work: %v %v", back, err)
	}
}

func TestBefore(t *testing.T) {
	s := MustNew(Low, Transition{1, High}, Transition{2, Low}, Transition{3, High})
	b := s.Before(2)
	if b.Len() != 1 || b.Transition(0).At != 1 {
		t.Fatalf("Before(2): %v", b)
	}
	if got := s.Before(0.5); got.Len() != 0 {
		t.Fatalf("Before(0.5): %v", got)
	}
	if got := s.Before(10); got.Len() != 3 {
		t.Fatalf("Before(10): %v", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []Signal{
		Zero(),
		Const(High),
		MustPulse(1.25, 2.5),
		MustNew(High, Transition{0, Low}, Transition{4.5, High}),
	}
	for _, s := range cases {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if !got.Equal(s, 0) {
			t.Errorf("round trip %q -> %v", s.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{"", "2", "0 x@1", "0 r@zzz", "0 r@1 r@2", "0 f@1"} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q): want error", text)
		}
	}
}

// TestParseRejectsTrailingJunk checks that a transition time is the whole
// rest of its field: junk after a number is an error naming the field, not
// a transition at the number's prefix.
func TestParseRejectsTrailingJunk(t *testing.T) {
	for text, field := range map[string]string{
		"0 r@1,5":       "r@1,5",
		"0 r@1.5.7 f@3": "r@1.5.7",
		"0 r@1x f@2":    "r@1x",
		"0 r@1 f@":      "f@",
	} {
		_, err := Parse(text)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(field)) {
			t.Errorf("Parse(%q) = %v, want an error naming field %q", text, err, field)
		}
	}
	for _, text := range []string{"0 r@1e-3 f@2.5E1", "1 f@+4 r@8"} {
		if _, err := Parse(text); err != nil {
			t.Errorf("Parse(%q): %v", text, err)
		}
	}
}

func TestIntervalsAndMinPulseLen(t *testing.T) {
	s := MustNew(Low,
		Transition{1, High}, Transition{2, Low},
		Transition{5, High}, Transition{5.25, Low},
		Transition{9, High})
	ones := s.Intervals(High)
	if len(ones) != 3 {
		t.Fatalf("want 3 one-intervals, got %d", len(ones))
	}
	if ones[2].Closed() {
		t.Fatal("last interval must be open")
	}
	if got := s.MinPulseLen(High); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("MinPulseLen(High) = %g", got)
	}
	if got := s.MinPulseLen(Low); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MinPulseLen(Low) = %g", got)
	}
	if got := Zero().MinPulseLen(High); !math.IsInf(got, 1) {
		t.Fatalf("MinPulseLen of const = %g", got)
	}
	if got := len(s.Pulses()); got != 2 {
		t.Fatalf("Pulses: want 2 closed pulses, got %d", got)
	}
}

func TestAnalyze(t *testing.T) {
	// Pulses at [1,2], [4,4.5], [6,7].
	s := MustNew(Low,
		Transition{1, High}, Transition{2, Low},
		Transition{4, High}, Transition{4.5, Low},
		Transition{6, High}, Transition{7, Low})
	ts, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	wantUp := []float64{1, 0.5, 1}
	for i, w := range wantUp {
		if math.Abs(ts.UpTimes[i]-w) > 1e-12 {
			t.Errorf("UpTimes[%d] = %g want %g", i, ts.UpTimes[i], w)
		}
	}
	if !math.IsNaN(ts.DownTimes[0]) {
		t.Error("DownTimes[0] must be NaN")
	}
	if math.Abs(ts.DownTimes[1]-2) > 1e-12 || math.Abs(ts.DownTimes[2]-1.5) > 1e-12 {
		t.Errorf("DownTimes = %v", ts.DownTimes)
	}
	// Periods: rise-to-rise 3 and 2; duty cycles 1/3 and 0.25.
	if math.Abs(ts.Periods[0]-3) > 1e-12 || math.Abs(ts.Periods[1]-2) > 1e-12 {
		t.Errorf("Periods = %v", ts.Periods)
	}
	if math.Abs(ts.DutyCycles[0]-1.0/3) > 1e-12 || math.Abs(ts.DutyCycles[1]-0.25) > 1e-12 {
		t.Errorf("DutyCycles = %v", ts.DutyCycles)
	}
	if got := ts.MaxUpTime(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("MaxUpTime(1) = %g", got)
	}
	if got := ts.MaxDutyCycle(0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("MaxDutyCycle(0) = %g", got)
	}
	if got := ts.MinPeriod(0); math.Abs(got-2) > 1e-12 {
		t.Errorf("MinPeriod(0) = %g", got)
	}
	if got := ts.MinPeriod(5); !math.IsInf(got, 1) {
		t.Errorf("MinPeriod past end = %g", got)
	}
	if _, err := Analyze(Const(High)); err == nil {
		t.Fatal("Analyze must reject initial value 1")
	}
}

func TestStabilizationTime(t *testing.T) {
	if got := Zero().StabilizationTime(); got != 0 {
		t.Fatalf("const stabilization = %g", got)
	}
	s := MustPulse(3, 2)
	if got := s.StabilizationTime(); got != 5 {
		t.Fatalf("pulse stabilization = %g", got)
	}
}

// randomSignal builds a valid random signal for property tests.
func randomSignal(r *rand.Rand) Signal {
	n := r.Intn(20)
	times := make([]float64, n)
	t := r.Float64()
	for i := range times {
		times[i] = t
		t += 1e-6 + r.Float64()*10
	}
	initial := Value(r.Intn(2))
	s, err := FromEdges(initial, times...)
	if err != nil {
		panic(err)
	}
	return s
}

func TestQuickTraceConsistency(t *testing.T) {
	// Property: At(tr.At) equals tr.To and At just before equals previous value.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSignal(r)
		prev := s.Initial()
		for i := 0; i < s.Len(); i++ {
			tr := s.Transition(i)
			if s.At(tr.At) != tr.To {
				return false
			}
			if s.At(tr.At-1e-9) != prev && i > 0 && tr.At-1e-9 > s.Transition(i-1).At {
				return false
			}
			prev = tr.To
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSignal(r)
		got, err := Parse(s.String())
		// String prints the shortest text that parses back to the same float64.
		return err == nil && got.Initial() == s.Initial() && got.Len() == s.Len()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvertInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSignal(r)
		return s.Invert().Invert().Equal(s, 0)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntervalsPartition(t *testing.T) {
	// Property: 0- and 1-intervals together count len(trs) intervals, and
	// interval boundaries coincide with transitions.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSignal(r)
		total := len(s.Intervals(Low)) + len(s.Intervals(High))
		return total == s.Len()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
