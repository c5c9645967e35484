package signal

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fmtString is Signal.String written with fmt's %g verb: the reference
// its bytes must equal.
func fmtString(s Signal) string {
	var b strings.Builder
	b.WriteString(s.initial.String())
	for _, tr := range s.trs {
		k := "f"
		if tr.Rising() {
			k = "r"
		}
		b.WriteString(fmt.Sprintf(" %s@%g", k, tr.At))
	}
	return b.String()
}

// fieldsParse is Parse written with strings.Fields and New: the reference
// its results and error texts must equal.
func fieldsParse(text string) (Signal, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Signal{}, fmt.Errorf("signal: empty text")
	}
	var initial Value
	switch fields[0] {
	case "0":
		initial = Low
	case "1":
		initial = High
	default:
		return Signal{}, fmt.Errorf("signal: bad initial value %q", fields[0])
	}
	trs := make([]Transition, 0, len(fields)-1)
	for _, f := range fields[1:] {
		var to Value
		switch {
		case strings.HasPrefix(f, "r@"):
			to = High
		case strings.HasPrefix(f, "f@"):
			to = Low
		default:
			return Signal{}, fmt.Errorf("signal: bad transition %q", f)
		}
		at, err := strconv.ParseFloat(f[2:], 64)
		if err != nil {
			return Signal{}, fmt.Errorf("signal: bad transition time in field %q", f)
		}
		trs = append(trs, Transition{At: at, To: to})
	}
	return New(initial, trs...)
}

// codecEdgeTimes are float64s at the edges of %g's output forms: zero, the
// subnormals, the %e/%f switch points (exponent −5 and 21 digits), integers
// around 2⁵³ and the largest finite value.
var codecEdgeTimes = []float64{
	0, math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	2.2250738585072014e-308, 1e-300, 1e-5, 9.999999999999999e-5, 1e-4, 0.1,
	0.5, 1, 2, 3, 10, 100, 123456, 999999, 1e6, 1234567, 1e15, 1 << 53,
	1<<53 + 2, 1e20, 1e21, 1e22, 123456789012345678901234.0,
	math.MaxFloat64, math.Nextafter(1, 2), math.Nextafter(1e21, 0),
}

// randomTime draws a finite non-negative float64 from a uniform bit
// pattern, so every exponent is about equally likely.
func randomTime(r *rand.Rand) float64 {
	for {
		f := math.Float64frombits(r.Uint64() &^ (1 << 63))
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			return f
		}
	}
}

func TestStringMatchesSprintf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	times := append([]float64{math.Copysign(0, -1)}, codecEdgeTimes...)
	for i := 0; i < 20000; i++ {
		times = append(times, randomTime(r))
	}
	for _, at := range times {
		for _, to := range []Value{Low, High} {
			tr := Transition{At: at, To: to}
			k := "f"
			if to == High {
				k = "r"
			}
			if got, want := tr.String(), fmt.Sprintf("%s@%g", k, at); got != want {
				t.Fatalf("Transition{%v, %v}.String() = %q, want %q", at, to, got, want)
			}
		}
	}
	// Whole signals: the edge values, then random sorted bit patterns.
	sigs := []Signal{Zero(), Const(High)}
	edges := append([]float64(nil), codecEdgeTimes...)
	sort.Float64s(edges)
	sigs = append(sigs, mustEdges(t, High, edges))
	for i := 0; i < 500; i++ {
		ts := make([]float64, r.Intn(40))
		for j := range ts {
			ts[j] = randomTime(r)
		}
		sort.Float64s(ts)
		sigs = append(sigs, mustEdges(t, Value(r.Intn(2)), dedupSorted(ts)))
	}
	for _, s := range sigs {
		if got, want := s.String(), fmtString(s); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func mustEdges(t *testing.T, initial Value, times []float64) Signal {
	t.Helper()
	s, err := FromEdges(initial, times...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dedupSorted(ts []float64) []float64 {
	out := ts[:0]
	for i, v := range ts {
		if i == 0 || v != ts[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// codecParseTexts spell signals with every kind of separator
// strings.Fields knows (ASCII controls, U+0085, U+00A0, U+2028, U+3000)
// and with bytes it does not split on (invalid UTF-8, U+FEFF, U+200B).
var codecParseTexts = []string{
	"", " ", "\t\n", "0", "1", "2", "0 r@1 f@2.5", "\t0\nr@1\r\nf@2\v\f",
	"0\u0085r@1\u00a0f@2", "0\u2028r@1\u3000f@2\u2029", "\u16800 r@1",
	"0\u0085", "\u3000", "0\u200br@1", "0\ufeff r@1", "0 r@1\u200b",
	"0\xffr@1", "0 r@1\xff", "\xff", "0 \xc2 r@1", "0 r@1\xc2", "0\xc2\x85r@1",
	"0 r@1 \xe2\x80", "0 r@1\xe3\x80\x80f@2", "0 r@1,5", "0 r@1x f@2",
	"0 r@1 f@", "0 x@1", "0 r@-1", "0 r@2 f@1", "0 f@1", "0 r@NaN",
	"0 r@Inf", "0 r@0x1p-2", "1 f@+4 r@8", "0 r@1@2", "0 @", "0 r@1e400",
}

func TestParseMatchesFieldsParse(t *testing.T) {
	texts := append([]string(nil), codecParseTexts...)
	r := rand.New(rand.NewSource(2))
	pieces := []string{
		"0", "1", "r@", "f@", "1.5", "2", "e3", "-", "@", "x", " ", "\t",
		"\n", "\u0085", "\u00a0", "\u2028", "\u3000", "\xff", "\xc2", "\u200b",
	}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		texts = append(texts, b.String())
	}
	for _, text := range texts {
		checkParseMatches(t, text)
	}
}

// checkParseMatches fails t unless Parse and fieldsParse agree on text:
// the same error text, or the same signal.
func checkParseMatches(t *testing.T, text string) {
	t.Helper()
	got, gerr := Parse(text)
	want, werr := fieldsParse(text)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("Parse(%q): error %v, reference error %v", text, gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() {
			t.Fatalf("Parse(%q): error %q, reference %q", text, gerr, werr)
		}
	case !got.Equal(want, 0) || got.String() != want.String():
		t.Fatalf("Parse(%q) = %q, reference %q", text, got, want)
	}
}

// benchSignal is a 2,000-transition stimulus with irregular times, the
// size of a kernel-workload pulse train.
func benchSignal() Signal {
	r := rand.New(rand.NewSource(1))
	times := make([]float64, 2000)
	t := 1.0
	for i := range times {
		t += 0.5 + 1.5*r.Float64()
		times[i] = t
	}
	s, err := FromEdges(Low, times...)
	if err != nil {
		panic(err)
	}
	return s
}

func BenchmarkSignalString(b *testing.B) {
	s := benchSignal()
	b.SetBytes(int64(len(s.String())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.String()
	}
}

func BenchmarkSignalParse(b *testing.B) {
	text := benchSignal().String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
