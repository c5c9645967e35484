// Package circuit implements the circuit graphs of the model: vertices are
// input/output ports and zero-time gates, edges are delay channels. Valid
// circuits satisfy the constraints of Section II: every gate input and
// every output port is driven by exactly one channel, gates and channels
// alternate along every path, and channels attached to ports are zero-delay
// (modeled here by edges with a nil channel model).
package circuit

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"involution/internal/channel"
	"involution/internal/gate"
	"involution/internal/signal"
)

// Kind classifies circuit vertices.
type Kind int

// Vertex kinds.
const (
	KindInput Kind = iota
	KindOutput
	KindGate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	case KindGate:
		return "gate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a circuit vertex.
type Node struct {
	Name    string
	Kind    Kind
	Fn      gate.Func    // gates only
	Initial signal.Value // gates: output value until time 0
}

// Edge is a directed channel edge from a node's output to an input pin of
// another node. A nil Model is the zero-delay channel used to attach ports.
type Edge struct {
	From  string
	To    string
	Pin   int // input pin index at the destination (0 for ports)
	Model channel.Model
}

// Circuit is a mutable circuit graph. Build it with AddInput/AddOutput/
// AddGate/Connect, then Validate before simulating.
type Circuit struct {
	Name  string
	nodes map[string]*Node
	order []string // insertion order, for deterministic iteration
	edges []Edge
	// valid records a successful Validate; every structural change clears
	// it. Atomic because concurrent runs share one built circuit.
	valid atomic.Bool
}

// New creates an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, nodes: make(map[string]*Node)}
}

func (c *Circuit) addNode(n *Node) error {
	if n.Name == "" {
		return errors.New("circuit: empty node name")
	}
	if strings.ContainsAny(n.Name, " \t\n") {
		return fmt.Errorf("circuit: node name %q contains whitespace", n.Name)
	}
	if _, ok := c.nodes[n.Name]; ok {
		return fmt.Errorf("circuit: duplicate node %q", n.Name)
	}
	c.nodes[n.Name] = n
	c.order = append(c.order, n.Name)
	c.valid.Store(false)
	return nil
}

// AddInput adds an input port.
func (c *Circuit) AddInput(name string) error {
	return c.addNode(&Node{Name: name, Kind: KindInput})
}

// AddOutput adds an output port.
func (c *Circuit) AddOutput(name string) error {
	return c.addNode(&Node{Name: name, Kind: KindOutput})
}

// AddGate adds a gate with the given Boolean function and initial output
// value.
func (c *Circuit) AddGate(name string, fn gate.Func, initial signal.Value) error {
	if !fn.Valid() {
		return fmt.Errorf("circuit: invalid gate function for %q", name)
	}
	return c.addNode(&Node{Name: name, Kind: KindGate, Fn: fn, Initial: initial})
}

// Connect adds a channel edge from node from to input pin pin of node to.
// A nil model is the zero-delay channel (ports only, per the model; allowed
// anywhere but validated for zero-delay cycles).
func (c *Circuit) Connect(from, to string, pin int, model channel.Model) error {
	src, ok := c.nodes[from]
	if !ok {
		return fmt.Errorf("circuit: unknown source node %q", from)
	}
	dst, ok := c.nodes[to]
	if !ok {
		return fmt.Errorf("circuit: unknown destination node %q", to)
	}
	if src.Kind == KindOutput {
		return fmt.Errorf("circuit: output port %q cannot drive edges", from)
	}
	if dst.Kind == KindInput {
		return fmt.Errorf("circuit: input port %q cannot be driven", to)
	}
	switch dst.Kind {
	case KindOutput:
		if pin != 0 {
			return fmt.Errorf("circuit: output port %q has only pin 0", to)
		}
	case KindGate:
		if pin < 0 || pin >= dst.Fn.Arity {
			return fmt.Errorf("circuit: pin %d out of range for gate %q (%s)", pin, to, dst.Fn.Name)
		}
	}
	for _, e := range c.edges {
		if e.To == to && e.Pin == pin {
			return fmt.Errorf("circuit: %q pin %d already driven by %q", to, pin, e.From)
		}
	}
	c.edges = append(c.edges, Edge{From: from, To: to, Pin: pin, Model: model})
	c.valid.Store(false)
	return nil
}

// Node returns the named node.
func (c *Circuit) Node(name string) (*Node, bool) {
	n, ok := c.nodes[name]
	return n, ok
}

// Nodes returns the nodes in insertion order.
func (c *Circuit) Nodes() []*Node {
	out := make([]*Node, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.nodes[name])
	}
	return out
}

// Edges returns a copy of the edge list.
func (c *Circuit) Edges() []Edge {
	cp := make([]Edge, len(c.edges))
	copy(cp, c.edges)
	return cp
}

// Inputs returns the input port names in insertion order.
func (c *Circuit) Inputs() []string { return c.byKind(KindInput) }

// Outputs returns the output port names in insertion order.
func (c *Circuit) Outputs() []string { return c.byKind(KindOutput) }

func (c *Circuit) byKind(k Kind) []string {
	var out []string
	for _, name := range c.order {
		if c.nodes[name].Kind == k {
			out = append(out, name)
		}
	}
	return out
}

// Validate checks structural well-formedness: every gate pin and every
// output port driven exactly once, and no cycle consisting solely of
// zero-delay edges. A success is remembered until the next AddInput,
// AddOutput, AddGate or Connect, so validating a shared circuit on every
// run costs one atomic load; a Node changed in place through Node or
// Nodes is not noticed.
func (c *Circuit) Validate() error {
	if c.valid.Load() {
		return nil
	}
	driven := make(map[string]map[int]bool)
	for _, e := range c.edges {
		if driven[e.To] == nil {
			driven[e.To] = make(map[int]bool)
		}
		driven[e.To][e.Pin] = true
	}
	for _, name := range c.order {
		n := c.nodes[name]
		switch n.Kind {
		case KindGate:
			for pin := 0; pin < n.Fn.Arity; pin++ {
				if !driven[name][pin] {
					return fmt.Errorf("circuit: gate %q pin %d undriven", name, pin)
				}
			}
		case KindOutput:
			if !driven[name][0] {
				return fmt.Errorf("circuit: output port %q undriven", name)
			}
		}
	}
	if cyc := c.zeroDelayCycle(); cyc != nil {
		return fmt.Errorf("circuit: zero-delay cycle through %s", strings.Join(cyc, " → "))
	}
	c.valid.Store(true)
	return nil
}

// zeroDelayCycle finds a cycle in the subgraph of nil-model edges, if any.
func (c *Circuit) zeroDelayCycle() []string {
	adj := make(map[string][]string)
	for _, e := range c.edges {
		if e.Model == nil {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string
	var dfs func(string) bool
	dfs = func(u string) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, v := range adj[u] {
			switch color[v] {
			case white:
				if dfs(v) {
					return true
				}
			case gray:
				for i, w := range stack {
					if w == v {
						cycle = append([]string{}, stack[i:]...)
						return true
					}
				}
			}
		}
		color[u] = black
		stack = stack[:len(stack)-1]
		return false
	}
	names := make([]string, 0, len(adj))
	for u := range adj {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// Fanout returns the edges leaving the named node.
func (c *Circuit) Fanout(name string) []Edge {
	var out []Edge
	for _, e := range c.edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// Stats summarizes the circuit.
type Stats struct {
	Inputs, Outputs, Gates, Channels, ZeroDelay int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	var s Stats
	for _, n := range c.nodes {
		switch n.Kind {
		case KindInput:
			s.Inputs++
		case KindOutput:
			s.Outputs++
		case KindGate:
			s.Gates++
		}
	}
	for _, e := range c.edges {
		if e.Model == nil {
			s.ZeroDelay++
		} else {
			s.Channels++
		}
	}
	return s
}

// DOT renders the circuit in Graphviz DOT format.
func (c *Circuit) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", c.Name)
	for _, name := range c.order {
		n := c.nodes[name]
		switch n.Kind {
		case KindInput:
			fmt.Fprintf(&b, "  %q [shape=rarrow];\n", name)
		case KindOutput:
			fmt.Fprintf(&b, "  %q [shape=larrow];\n", name)
		case KindGate:
			fmt.Fprintf(&b, "  %q [shape=box,label=\"%s\\n%s (init %v)\"];\n", name, name, n.Fn.Name, n.Initial)
		}
	}
	for _, e := range c.edges {
		label := "0"
		if e.Model != nil {
			label = e.Model.String()
		}
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s → pin %d\"];\n", e.From, e.To, label, e.Pin)
	}
	b.WriteString("}\n")
	return b.String()
}
