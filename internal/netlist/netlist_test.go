package netlist

import (
	"strings"
	"testing"

	"involution/internal/circuit"
	"involution/internal/signal"
	"involution/internal/sim"
)

const spfNetlist = `
# SPF circuit of Fig. 5
circuit spf
input  i
output o
gate   or  OR2  init=0
gate   ht  BUF  init=0
channel i  or 0  zero
channel or or 1  exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=worst
channel or ht 0  exp tau=40 tp=6 vth=0.7
channel ht o  0  zero
`

func TestParseSPF(t *testing.T) {
	c, err := Parse(strings.NewReader(spfNetlist))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != 1 || st.Outputs != 1 || st.Gates != 2 || st.Channels != 2 || st.ZeroDelay != 2 {
		t.Fatalf("stats %+v", st)
	}
	// The parsed circuit simulates: a long pulse locks the loop.
	in := signal.MustPulse(0, 5)
	res, err := sim.Run(c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: 300, Record: []string{"or"}})
	if err != nil {
		t.Fatal(err)
	}
	or := res.Signals["or"]
	if or.Final() != signal.High {
		t.Fatalf("loop did not lock: %v", or)
	}
}

func TestParseAllChannelKinds(t *testing.T) {
	text := `
circuit kinds
input  i
output o
gate   g  BUF init=0
gate   h  NOT init=1
gate   k  NAND2 init=1
channel i g 0 pure d=1
channel g h 0 inertial d=2 w=1
channel h k 0 ddm tp0=1 tau=0.5 t0=0.1
channel g k 1 exp tau=1 tp=0.5 vth=0.5 adversary=uniform seed=7
channel k o 0 zero
`
	c, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Channels; got != 4 {
		t.Fatalf("channels %d", got)
	}
}

func TestParseBlendAndScale(t *testing.T) {
	text := `
circuit b
input i
output o
gate g BUF init=0
gate h BUF init=0
channel i g 0 blend tau=0.8 tp=0.4 vth=0.5 tau2=8 vth2=0.92 w=0.7
channel g h 0 exp tau=1 tp=0.5 vth=0.6 scale=2.5
channel h o 0 zero
`
	c, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Channels; got != 2 {
		t.Fatalf("channels %d", got)
	}
	// Invalid blend parameters are rejected.
	bad := `circuit b
input i
output o
gate g BUF init=0
channel i g 0 blend tau=1 tp=0.5 tau2=100 vth2=0.5 w=0.5
channel g o 0 zero
`
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Fatal("infeasible blend must fail")
	}
	missing := `circuit b
input i
output o
gate g BUF init=0
channel i g 0 blend tau=1 tp=0.5
channel g o 0 zero
`
	if _, err := Parse(strings.NewReader(missing)); err == nil {
		t.Fatal("blend without tau2 must fail")
	}
	badScale := `circuit b
input i
output o
gate g BUF init=0
channel i g 0 exp tau=1 tp=0.5 scale=-1
channel g o 0 zero
`
	if _, err := Parse(strings.NewReader(badScale)); err == nil {
		t.Fatal("negative scale must fail")
	}
}

func TestParseAdversaries(t *testing.T) {
	for _, adv := range []string{"zero", "worst", "maxup", "uniform", "walk"} {
		text := `circuit a
input i
output o
gate g BUF init=0
channel i g 0 exp tau=1 tp=0.5 eta+=0.02 eta-=0.02 adversary=` + adv + `
channel g o 0 zero
`
		if _, err := Parse(strings.NewReader(text)); err != nil {
			t.Errorf("adversary %q: %v", adv, err)
		}
	}
}

func TestGateByName(t *testing.T) {
	good := []string{"BUF", "NOT", "INV", "MUX", "CONST0", "CONST1", "AND2", "OR3", "NAND2", "NOR4", "XOR2", "XNOR2", "MAJ3", "or2"}
	for _, n := range good {
		if _, err := gateByName(n); err != nil {
			t.Errorf("gateByName(%q): %v", n, err)
		}
	}
	bad := []string{"AND", "OR0", "ZZZ", "MAJ999"}
	for _, n := range bad {
		if _, err := gateByName(n); err == nil {
			t.Errorf("gateByName(%q): want error", n)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no circuit first":  "input i\n",
		"empty":             "",
		"dup circuit":       "circuit a\ncircuit b\n",
		"bad circuit":       "circuit\n",
		"bad input":         "circuit a\ninput\n",
		"bad output":        "circuit a\noutput\n",
		"bad statement":     "circuit a\nfrobnicate x\n",
		"bad gate":          "circuit a\ngate g\n",
		"bad gate opt":      "circuit a\ngate g BUF frob=1\n",
		"bad gate init":     "circuit a\ngate g BUF init=2\n",
		"bad channel":       "circuit a\nchannel x y\n",
		"bad pin":           "circuit a\ninput i\ngate g BUF init=0\nchannel i g zz pure d=1\n",
		"bad kind":          "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 warp d=1\n",
		"missing d":         "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 pure\n",
		"bad option":        "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 pure d=1 zz=2\n",
		"bad option format": "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 pure d\n",
		"bad float":         "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 pure d=abc\n",
		"bad exp adversary": "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 exp tau=1 tp=1 adversary=evil\n",
		"bad exp option":    "circuit a\ninput i\ngate g BUF init=0\nchannel i g 0 exp tau=1 tp=1 zz=1\n",
		"undriven output":   "circuit a\ninput i\noutput o\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestParsedKindsMatchCircuitAPI(t *testing.T) {
	c, err := Parse(strings.NewReader(spfNetlist))
	if err != nil {
		t.Fatal(err)
	}
	n, ok := c.Node("or")
	if !ok || n.Kind != circuit.KindGate || n.Fn.Arity != 2 {
		t.Fatalf("or node %+v", n)
	}
}
