// Package signal implements the binary, continuous-time signal model of
// Függer et al. (DATE 2018): a signal is a list of alternating transitions
// such that
//
//	S1) the initial transition is at time −∞; all others are at times t ≥ 0,
//	S2) the sequence of transition times is strictly increasing,
//	S3) an infinite list has unbounded transition times.
//
// The initial transition at −∞ is represented by the signal's initial value.
// To every signal corresponds a trace function R → {0,1} whose value at time
// t is that of the most recent transition (see Signal.At).
//
// Signals are immutable: all methods return new values and never mutate the
// receiver.
package signal

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Value is a binary signal value.
type Value uint8

// The two signal values.
const (
	Low  Value = 0
	High Value = 1
)

// Not returns the complement of v.
func (v Value) Not() Value { return v ^ 1 }

// String returns "0" or "1".
func (v Value) String() string {
	if v == High {
		return "1"
	}
	return "0"
}

// Transition is a signal transition: at time At the signal assumes value To.
// A transition with To == High is a rising transition, To == Low a falling
// one.
type Transition struct {
	At float64
	To Value
}

// Rising reports whether t is a rising transition.
func (t Transition) Rising() bool { return t.To == High }

// String formats the transition as "r@t" or "f@t", the time in the
// shortest %g form that parses back to the same float64.
func (t Transition) String() string {
	return string(t.appendText(make([]byte, 0, maxTransitionText)))
}

// maxTransitionText bounds the length of a formatted transition: "r@"
// plus the longest shortest-'g' float64 ("-2.2250738585072014e-308").
const maxTransitionText = 2 + 24

// appendText appends the String form of t to b. strconv's 'g' with
// precision -1 is what fmt's %g does for a float64, so the bytes equal
// fmt.Sprintf("%s@%g", …) (TestStringMatchesSprintf).
func (t Transition) appendText(b []byte) []byte {
	k := byte('f')
	if t.Rising() {
		k = 'r'
	}
	return strconv.AppendFloat(append(b, k, '@'), t.At, 'g', -1, 64)
}

// Signal is an immutable binary signal. The zero Signal is the constant-zero
// signal.
type Signal struct {
	initial Value
	// trs holds the transitions at finite times, strictly increasing and
	// alternating starting from initial.Not().
	trs []Transition
}

// Validation errors returned by New.
var (
	ErrNegativeTime  = errors.New("signal: transition at negative time (S1)")
	ErrNotIncreasing = errors.New("signal: transition times not strictly increasing (S2)")
	ErrNotAlternate  = errors.New("signal: transition values do not alternate")
	ErrNotFinite     = errors.New("signal: transition time is NaN or infinite")
)

// New constructs a signal with the given initial value and transitions.
// The transitions must satisfy S1 and S2 and alternate starting from
// initial.Not(); otherwise an error is returned. The slice is copied.
func New(initial Value, trs ...Transition) (Signal, error) {
	if err := check(initial, trs); err != nil {
		return Signal{}, err
	}
	cp := make([]Transition, len(trs))
	copy(cp, trs)
	return Signal{initial: initial, trs: cp}, nil
}

// check is New's validation: S1, S2, finite times and alternation from
// initial.Not().
func check(initial Value, trs []Transition) error {
	prev := math.Inf(-1)
	want := initial.Not()
	for _, tr := range trs {
		if math.IsNaN(tr.At) || math.IsInf(tr.At, 0) {
			return fmt.Errorf("%w: %v", ErrNotFinite, tr.At)
		}
		if tr.At < 0 {
			return fmt.Errorf("%w: %v", ErrNegativeTime, tr.At)
		}
		if tr.At <= prev {
			return fmt.Errorf("%w: %v after %v", ErrNotIncreasing, tr.At, prev)
		}
		if tr.To != want {
			return fmt.Errorf("%w: transition to %v at %v", ErrNotAlternate, tr.To, tr.At)
		}
		prev = tr.At
		want = want.Not()
	}
	return nil
}

// MustNew is New but panics on invalid input. Intended for literals in tests
// and examples.
func MustNew(initial Value, trs ...Transition) Signal {
	s, err := New(initial, trs...)
	if err != nil {
		panic(err)
	}
	return s
}

// FromEdges builds a signal from an initial value and a strictly increasing
// list of transition times; transition values alternate automatically.
func FromEdges(initial Value, times ...float64) (Signal, error) {
	trs := make([]Transition, len(times))
	v := initial
	for i, t := range times {
		v = v.Not()
		trs[i] = Transition{At: t, To: v}
	}
	return New(initial, trs...)
}

// Zero returns the constant-zero signal.
func Zero() Signal { return Signal{} }

// Const returns the constant signal of value v.
func Const(v Value) Signal { return Signal{initial: v} }

// Pulse returns the signal with initial value 0, a rising transition at
// time start ≥ 0 and a falling transition at start+width (width > 0): a
// pulse of length width at time start in the paper's terminology.
func Pulse(start, width float64) (Signal, error) {
	if width <= 0 {
		return Signal{}, fmt.Errorf("signal: pulse width %g must be positive", width)
	}
	return FromEdges(Low, start, start+width)
}

// MustPulse is Pulse but panics on invalid input.
func MustPulse(start, width float64) Signal {
	s, err := Pulse(start, width)
	if err != nil {
		panic(err)
	}
	return s
}

// Train returns a signal that is a pulse train of n pulses of the given
// up-time, repeating with the given period, the first rising transition at
// start.
func Train(start, upTime, period float64, n int) (Signal, error) {
	if upTime <= 0 || period <= upTime {
		return Signal{}, fmt.Errorf("signal: invalid train upTime=%g period=%g", upTime, period)
	}
	times := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		t := start + float64(i)*period
		times = append(times, t, t+upTime)
	}
	return FromEdges(Low, times...)
}

// Initial returns the signal value before its first finite transition.
func (s Signal) Initial() Value { return s.initial }

// Final returns the signal value after its last transition.
func (s Signal) Final() Value {
	if len(s.trs) == 0 {
		return s.initial
	}
	return s.trs[len(s.trs)-1].To
}

// Len returns the number of finite-time transitions.
func (s Signal) Len() int { return len(s.trs) }

// Transitions returns a copy of the finite-time transitions.
func (s Signal) Transitions() []Transition {
	cp := make([]Transition, len(s.trs))
	copy(cp, s.trs)
	return cp
}

// Transition returns the i-th finite-time transition.
func (s Signal) Transition(i int) Transition { return s.trs[i] }

// At evaluates the signal trace at time t: the value of the most recent
// transition at a time ≤ t.
func (s Signal) At(t float64) Value {
	// First index with transition time > t.
	i := sort.Search(len(s.trs), func(i int) bool { return s.trs[i].At > t })
	if i == 0 {
		return s.initial
	}
	return s.trs[i-1].To
}

// IsConst reports whether the signal has no finite-time transitions, and if
// so its constant value.
func (s Signal) IsConst() (Value, bool) {
	if len(s.trs) == 0 {
		return s.initial, true
	}
	return 0, false
}

// IsZero reports whether s is the constant-zero signal.
func (s Signal) IsZero() bool {
	v, ok := s.IsConst()
	return ok && v == Low
}

// Equal reports whether the two signals have the same initial value and the
// same transitions with times equal up to the absolute tolerance eps.
func (s Signal) Equal(o Signal, eps float64) bool {
	if s.initial != o.initial || len(s.trs) != len(o.trs) {
		return false
	}
	for i := range s.trs {
		if s.trs[i].To != o.trs[i].To || math.Abs(s.trs[i].At-o.trs[i].At) > eps {
			return false
		}
	}
	return true
}

// Invert returns the complement signal.
func (s Signal) Invert() Signal {
	trs := make([]Transition, len(s.trs))
	for i, tr := range s.trs {
		trs[i] = Transition{At: tr.At, To: tr.To.Not()}
	}
	return Signal{initial: s.initial.Not(), trs: trs}
}

// Shift returns the signal with all transition times shifted by dt ≥ 0
// (shifting left could violate S1).
func (s Signal) Shift(dt float64) (Signal, error) {
	if dt < 0 && len(s.trs) > 0 && s.trs[0].At+dt < 0 {
		return Signal{}, fmt.Errorf("%w: shift by %g", ErrNegativeTime, dt)
	}
	trs := make([]Transition, len(s.trs))
	for i, tr := range s.trs {
		trs[i] = Transition{At: tr.At + dt, To: tr.To}
	}
	return Signal{initial: s.initial, trs: trs}, nil
}

// Before returns the prefix of s restricted to transitions strictly before t.
func (s Signal) Before(t float64) Signal {
	i := sort.Search(len(s.trs), func(i int) bool { return s.trs[i].At >= t })
	cp := make([]Transition, i)
	copy(cp, s.trs[:i])
	return Signal{initial: s.initial, trs: cp}
}

// String formats the signal as e.g. "0 r@1 f@2.5" (initial value followed by
// transitions). The constant signal formats as "0" or "1".
func (s Signal) String() string {
	var b strings.Builder
	b.Grow(1 + (1+maxTransitionText)*len(s.trs))
	b.WriteString(s.initial.String())
	var tmp [1 + maxTransitionText]byte
	for _, tr := range s.trs {
		b.Write(tr.appendText(append(tmp[:0], ' ')))
	}
	return b.String()
}

// Parse parses the format produced by String: an initial value "0" or "1"
// followed by whitespace-separated transitions "r@<time>" / "f@<time>".
// Fields are split as strings.Fields splits them: on runs of
// unicode.IsSpace runes, invalid UTF-8 counting as non-space.
func Parse(text string) (Signal, error) {
	first, rest := cutField(text)
	if first == "" {
		return Signal{}, errors.New("signal: empty text")
	}
	var initial Value
	switch first {
	case "0":
		initial = Low
	case "1":
		initial = High
	default:
		return Signal{}, fmt.Errorf("signal: bad initial value %q", first)
	}
	// Every transition field holds an '@', so this is never too small.
	trs := make([]Transition, 0, strings.Count(rest, "@"))
	for {
		var f string
		if f, rest = cutField(rest); f == "" {
			break
		}
		var to Value
		switch {
		case strings.HasPrefix(f, "r@"):
			to = High
		case strings.HasPrefix(f, "f@"):
			to = Low
		default:
			return Signal{}, fmt.Errorf("signal: bad transition %q", f)
		}
		// The whole rest of the field is the time: "r@1x" is an error, not
		// a transition at 1.
		at, err := strconv.ParseFloat(f[2:], 64)
		if err != nil {
			return Signal{}, fmt.Errorf("signal: bad transition time in field %q", f)
		}
		trs = append(trs, Transition{At: at, To: to})
	}
	// trs is Parse's own, so it needs New's checks but not its copy.
	if err := check(initial, trs); err != nil {
		return Signal{}, err
	}
	return Signal{initial: initial, trs: trs}, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// cutField returns the first field of s and what follows it; field is ""
// when s holds no more fields. Fields are delimited as in strings.Fields:
// by runs of unicode.IsSpace runes, an invalid byte being a one-byte
// non-space rune.
func cutField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	j := i
	for j < len(s) {
		if c := s[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[j:])
		if unicode.IsSpace(r) {
			break
		}
		j += w
	}
	return s[i:j], s[j:]
}
