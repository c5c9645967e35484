// Package netlist parses a small text netlist format into circuits, making
// the simulator usable on user-defined designs:
//
//	# comment
//	circuit spf
//	input  i
//	output o
//	gate   or  OR2  init=0
//	gate   ht  BUF  init=0
//	channel i  or 0  zero
//	channel or or 1  exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=worst
//	channel or ht 0  exp tau=40 tp=6 vth=0.7
//	channel ht o  0  zero
//
// Channel kinds: zero | pure d=… | inertial d=… w=… |
// ddm tp0=… tau=… t0=… | exp tau=… tp=… vth=… |
// blend tau=… tp=… vth=… tau2=… vth2=… w=… (two-component involution).
// The involution kinds (exp, blend) additionally accept scale=… (time
// scaling), eta+=… eta-=… and adversary=zero|worst|maxup|uniform|walk
// with seed=… step=….
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/gate"
	"involution/internal/signal"
)

// Parse reads the netlist format and builds a validated circuit.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	d, err := ParseDocument(r)
	if err != nil {
		return nil, err
	}
	return d.Build()
}

// ParseDocument reads the netlist format into its statement-level syntax
// tree without building the circuit. Only structural properties are
// checked here (circuit header first, known statement keywords); statement
// semantics (gate types, channel kinds, option values) are validated by
// Build.
func ParseDocument(r io.Reader) (*Document, error) {
	var d *Document
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "circuit" && d == nil {
			return nil, fmt.Errorf("netlist: line %d: first statement must be 'circuit <name>'", lineNo)
		}
		var err error
		switch fields[0] {
		case "circuit":
			if len(fields) != 2 {
				err = fmt.Errorf("want 'circuit <name>'")
			} else if d != nil {
				err = fmt.Errorf("duplicate circuit statement")
			} else {
				d = &Document{Name: fields[1]}
			}
		case "input", "output", "gate", "channel":
			d.Stmts = append(d.Stmts, Stmt{Line: lineNo, Fields: fields})
		default:
			err = fmt.Errorf("unknown statement %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: empty input")
	}
	return d, nil
}

// Build constructs and validates the circuit described by the document.
func (d *Document) Build() (*circuit.Circuit, error) {
	c := circuit.New(d.Name)
	for _, st := range d.Stmts {
		var err error
		switch st.Fields[0] {
		case "input":
			if len(st.Fields) != 2 {
				err = fmt.Errorf("want 'input <name>'")
			} else {
				err = c.AddInput(st.Fields[1])
			}
		case "output":
			if len(st.Fields) != 2 {
				err = fmt.Errorf("want 'output <name>'")
			} else {
				err = c.AddOutput(st.Fields[1])
			}
		case "gate":
			err = parseGate(c, st.Fields)
		case "channel":
			err = parseChannel(c, st.Fields)
		default:
			err = fmt.Errorf("unknown statement %q", st.Fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("netlist: line %d: %v", st.Line, err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseGate(c *circuit.Circuit, fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("want 'gate <name> <type> [init=0|1]'")
	}
	fn, err := gateByName(fields[2])
	if err != nil {
		return err
	}
	initial := signal.Low
	for _, f := range fields[3:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k != "init" {
			return fmt.Errorf("unknown gate option %q", f)
		}
		switch v {
		case "0":
			initial = signal.Low
		case "1":
			initial = signal.High
		default:
			return fmt.Errorf("bad init value %q", v)
		}
	}
	return c.AddGate(fields[1], fn, initial)
}

// gateByName resolves names like NOT, BUF, OR2, AND3, XOR2, MAJ3, MUX.
func gateByName(name string) (gate.Func, error) {
	upper := strings.ToUpper(name)
	switch upper {
	case "BUF":
		return gate.Buf(), nil
	case "NOT", "INV":
		return gate.Not(), nil
	case "MUX":
		return gate.Mux(), nil
	case "CONST0":
		return gate.Const(signal.Low), nil
	case "CONST1":
		return gate.Const(signal.High), nil
	}
	for _, p := range []struct {
		prefix string
		mk     func(int) gate.Func
	}{
		{"NAND", gate.Nand}, {"XNOR", gate.Xnor}, {"AND", gate.And},
		{"NOR", gate.Nor}, {"XOR", gate.Xor}, {"MAJ", gate.Maj}, {"OR", gate.Or},
	} {
		if rest, ok := strings.CutPrefix(upper, p.prefix); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 || n > 64 {
				return gate.Func{}, fmt.Errorf("bad gate arity in %q", name)
			}
			return p.mk(n), nil
		}
	}
	return gate.Func{}, fmt.Errorf("unknown gate type %q", name)
}

func parseChannel(c *circuit.Circuit, fields []string) error {
	if len(fields) < 5 {
		return fmt.Errorf("want 'channel <from> <to> <pin> <kind> [options…]'")
	}
	pin, err := strconv.Atoi(fields[3])
	if err != nil {
		return fmt.Errorf("bad pin %q", fields[3])
	}
	opts, err := parseOpts(fields[5:])
	if err != nil {
		return err
	}
	model, err := buildModel(fields[4], opts)
	if err != nil {
		return err
	}
	return c.Connect(fields[1], fields[2], pin, model)
}

func parseOpts(fields []string) (map[string]string, error) {
	opts := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad option %q (want key=value)", f)
		}
		opts[strings.ToLower(k)] = v
	}
	return opts, nil
}

func optFloat(opts map[string]string, key string, def float64, required bool) (float64, error) {
	v, ok := opts[key]
	if !ok {
		if required {
			return 0, fmt.Errorf("missing option %q", key)
		}
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value for %q: %v", key, err)
	}
	delete(opts, key)
	return f, nil
}

func buildModel(kind string, opts map[string]string) (channel.Model, error) {
	var model channel.Model
	var err error
	switch strings.ToLower(kind) {
	case "zero":
		model = nil
	case "pure":
		var d float64
		if d, err = optFloat(opts, "d", 0, true); err == nil {
			model, err = channel.NewPure(d)
		}
	case "inertial":
		var d, w float64
		if d, err = optFloat(opts, "d", 0, true); err == nil {
			if w, err = optFloat(opts, "w", d, false); err == nil {
				model, err = channel.NewInertial(d, w)
			}
		}
	case "ddm":
		var tp0, tau, t0 float64
		if tp0, err = optFloat(opts, "tp0", 0, true); err == nil {
			if tau, err = optFloat(opts, "tau", 0, true); err == nil {
				if t0, err = optFloat(opts, "t0", 0, false); err == nil {
					model, err = channel.NewSymmetricDDM(channel.DDMBranch{TP0: tp0, Tau: tau, T0: t0})
				}
			}
		}
	case "exp":
		model, err = buildInvolutionModel(opts, false)
	case "blend":
		model, err = buildInvolutionModel(opts, true)
	default:
		return nil, fmt.Errorf("unknown channel kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(kind) {
	case "exp", "blend":
	default:
		for k := range opts {
			return nil, fmt.Errorf("unknown option %q for channel kind %q", k, kind)
		}
	}
	return model, nil
}

// buildInvolutionModel parses "exp" (single exp-channel) and "blend"
// (two-component blended involution) channels, including their η bounds,
// adversary and optional time-scale factor.
func buildInvolutionModel(opts map[string]string, blend bool) (channel.Model, error) {
	tau, err := optFloat(opts, "tau", 0, true)
	if err != nil {
		return nil, err
	}
	tp, err := optFloat(opts, "tp", 0, true)
	if err != nil {
		return nil, err
	}
	vth, err := optFloat(opts, "vth", 0.5, false)
	if err != nil {
		return nil, err
	}
	var tau2, vth2, w float64
	if blend {
		if tau2, err = optFloat(opts, "tau2", 0, true); err != nil {
			return nil, err
		}
		if vth2, err = optFloat(opts, "vth2", 0, true); err != nil {
			return nil, err
		}
		if w, err = optFloat(opts, "w", 0.5, false); err != nil {
			return nil, err
		}
	}
	scale, err := optFloat(opts, "scale", 1, false)
	if err != nil {
		return nil, err
	}
	etaPlus, err := optFloat(opts, "eta+", 0, false)
	if err != nil {
		return nil, err
	}
	etaMinus, err := optFloat(opts, "eta-", 0, false)
	if err != nil {
		return nil, err
	}
	seed, err := optFloat(opts, "seed", 1, false)
	if err != nil {
		return nil, err
	}
	step, err := optFloat(opts, "step", (etaPlus+etaMinus)/10, false)
	if err != nil {
		return nil, err
	}
	advName := opts["adversary"]
	delete(opts, "adversary")
	// Remaining options are strategy parameters forwarded to the adversary
	// registry (e.g. tr=/tf=/gain= for hold, amp=/period=/phase= for sine);
	// the registry rejects parameters the named strategy does not take.
	params := make(map[string]float64)
	for k := range opts {
		f, err := optFloat(opts, k, 0, true)
		if err != nil {
			return nil, err
		}
		params[k] = f
	}

	var pair delay.Pair
	if blend {
		pair, err = delay.BlendedExp(delay.ExpParams{Tau: tau, TP: tp, Vth: vth}, tau2, vth2, w)
	} else {
		pair, err = delay.Exp(delay.ExpParams{Tau: tau, TP: tp, Vth: vth})
	}
	if err != nil {
		return nil, err
	}
	if scale != 1 {
		if pair, err = delay.Scale(pair, scale); err != nil {
			return nil, err
		}
	}
	ch, err := core.New(pair, adversary.Eta{Plus: etaPlus, Minus: etaMinus})
	if err != nil {
		return nil, err
	}
	var mk func() adversary.Strategy
	if advName != "" && advName != "zero" {
		if advName == "walk" {
			if _, ok := params["step"]; !ok {
				params["step"] = step // legacy default: (η⁺+η⁻)/10
			}
		}
		if len(params) == 0 {
			params = nil
		}
		spec := adversary.Spec{Name: advName, Seed: int64(seed), Params: params}
		if err := adversary.Validate(spec); err != nil {
			return nil, err
		}
		// Each channel instance gets fresh strategy state from the registry.
		mk = func() adversary.Strategy {
			s, err := adversary.New(spec)
			if err != nil {
				panic(err) // validated above; specs are immutable
			}
			return s
		}
	} else if len(params) > 0 {
		for k := range params {
			return nil, fmt.Errorf("unknown option %q for involution channel", k)
		}
	}
	return channel.NewInvolution(ch, mk)
}
