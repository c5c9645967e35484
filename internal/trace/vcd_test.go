package trace

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestWriteVCDEmptyMap(t *testing.T) {
	var b strings.Builder
	if err := WriteVCD(&b, nil, "1ps", 1); err != nil {
		t.Fatal(err)
	}
	want := "$timescale 1ps $end\n$scope module top $end\n$upscope $end\n$enddefinitions $end\n$dumpvars\n$end\n"
	if b.String() != want {
		t.Fatalf("empty map VCD:\n%q\nwant\n%q", b.String(), want)
	}
}

func TestWriteVCDZeroTransitions(t *testing.T) {
	signals := map[string]signal.Signal{
		"lo": signal.Zero(),
		"hi": signal.MustNew(signal.High),
	}
	var b strings.Builder
	if err := WriteVCD(&b, signals, "1ps", 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Both wires declared, initial values dumped, no change section.
	for _, want := range []string{"$var wire 1 ! hi $end", "$var wire 1 \" lo $end", "1!", "0\""} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "#") {
		t.Errorf("constant signals must produce no timestamped changes:\n%s", out)
	}
}

func TestWriteVCDSubResolutionCollapse(t *testing.T) {
	// A 0.1-wide pulse at resolution 0.5 rounds both edges to tick 2: the
	// glitch collapses back to the initial value and must vanish.
	glitch := signal.MustPulse(1.0, 0.1)
	// Three sub-tick transitions ending High must emit exactly one change.
	burst := signal.MustNew(signal.Low,
		signal.Transition{At: 0.9, To: signal.High},
		signal.Transition{At: 1.1, To: signal.Low},
		signal.Transition{At: 1.2, To: signal.High})
	var b strings.Builder
	if err := WriteVCD(&b, map[string]signal.Signal{"g": glitch, "u": burst}, "1ps", 0.5); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Split off the change section (after the $dumpvars … $end block).
	_, body, ok := strings.Cut(out, "$dumpvars\n0!\n0\"\n$end\n")
	if !ok {
		t.Fatalf("unexpected header/dumpvars layout:\n%s", out)
	}
	// "g" is wire '!': its glitch must vanish. "u" is wire '"': the burst
	// must collapse to a single rise at tick 2.
	if strings.Contains(body, "!") {
		t.Errorf("sub-resolution glitch leaked into dump:\n%s", body)
	}
	if body != "#2\n1\"\n" {
		t.Errorf("collapsed burst: body %q, want %q", body, "#2\n1\"\n")
	}
}

func TestWriteVCDRejectsBadTicks(t *testing.T) {
	sig := map[string]signal.Signal{"a": signal.MustPulse(1, 2)}
	var b strings.Builder
	for _, res := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := WriteVCD(&b, sig, "1ps", res); err == nil {
			t.Errorf("resolution %g must be rejected", res)
		}
	}
	// A finite time whose tick overflows the resolution division.
	far := map[string]signal.Signal{"a": signal.MustNew(signal.Low, signal.Transition{At: 1e300, To: signal.High})}
	if err := WriteVCD(&b, far, "1ps", 1e-300); err == nil {
		t.Error("tick overflow must be rejected")
	}
}

// TestWriteVCDGolden byte-compares the dump of a small deterministic
// simulation against testdata/pipe_golden.vcd (regenerate with -update).
func TestWriteVCDGolden(t *testing.T) {
	pure, err := channel.NewPure(1)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("pipe")
	for _, step := range []error{
		c.AddInput("i"),
		c.AddOutput("o"),
		c.AddGate("b", gate.Buf(), signal.Low),
		c.Connect("i", "b", 0, pure),
		c.Connect("b", "o", 0, nil),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	in := signal.MustPulse(1, 4)
	res, err := sim.Run(c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: 10, Record: []string{"i", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteVCD(&b, res.Signals, "1ps", 0.5); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "pipe_golden.vcd")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("VCD not byte-identical to golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}
