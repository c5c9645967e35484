// Package sim is a deterministic event-driven simulator for circuits whose
// edges are delay channels (package channel) and whose vertices are
// zero-time gates (package gate) — the execution semantics of the circuit
// model of Függer et al. It supports feedback loops, per-edge channel
// state, transition cancellation (as performed by commercial simulators
// that drop non-FIFO transitions), and records the full signal at every
// output port, watched node and node the caller names in Options.Record.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/signal"
)

// Options configures a simulation run.
type Options struct {
	// Horizon is the time up to which events are processed (inclusive).
	// Executions of circuits with feedback may be infinite; the horizon
	// bounds the run.
	Horizon float64
	// MaxEvents caps the number of processed events (default 1 << 20);
	// exceeding it aborts the run with an error.
	MaxEvents int
	// MaxDeltas caps zero-delay propagation rounds within one timestamp
	// (default 10000).
	MaxDeltas int
	// Deadline bounds the wall-clock time of the run. When positive and
	// exceeded, the run aborts with ErrDeadline wrapped in an AbortError
	// carrying the partial statistics — graceful degradation instead of a
	// runaway simulation. Zero disables the deadline.
	Deadline time.Duration
	// Context, when non-nil, cancels the run cooperatively: cancellation
	// is checked once per delivered event batch, so an in-flight run stops
	// at the next event instead of running to the horizon. A canceled run
	// aborts with ErrCanceled wrapped in an AbortError carrying the
	// partial statistics, exactly like the budget and deadline guards.
	Context context.Context
	// Watch holds online monitors: for each named node, the monitor is
	// invoked on every recorded transition of that node; a non-nil return
	// aborts the run immediately with a WatchError. Monitors enable
	// early-abort verification of long executions (e.g. runt detection)
	// without recording and post-processing full traces.
	Watch map[string]Monitor
	// Record names the nodes whose signals the result keeps beyond the
	// output ports and the Watch nodes, which are always kept. Any node
	// may be named: input ports, gates, or (redundantly) outputs. Other
	// nodes keep only their latest transition while running and are
	// absent from Result.Signals.
	Record []string
	// Observer, when non-nil, receives scheduler callbacks for every
	// scheduled, delivered and canceled event, every finished delta cycle
	// and every annihilated zero-width pulse. Leave nil for the fast path:
	// no hook dispatch is performed, only the RunStats counters.
	Observer Observer

	// noTimeCheck disables the scheduling-time validation (NaN/±Inf and
	// time-travel rejection). Only the validation-cost benchmark sets it;
	// it is deliberately not exported.
	noTimeCheck bool
}

// Monitor observes one node's transitions during simulation.
type Monitor func(t float64, v signal.Value) error

// WatchError reports a monitor abort.
type WatchError struct {
	Node string
	At   float64
	Err  error
}

// Error describes the violated monitor.
func (e *WatchError) Error() string {
	return fmt.Sprintf("sim: watch on %q violated at t=%g: %v", e.Node, e.At, e.Err)
}

// Unwrap returns the monitor's error.
func (e *WatchError) Unwrap() error { return e.Err }

// MinPulseMonitor returns a Monitor that fails when two consecutive
// transitions of the node are closer than eps — an online version of
// condition F4 ("no output pulse shorter than ε").
func MinPulseMonitor(eps float64) Monitor {
	last := math.Inf(-1)
	return func(t float64, _ signal.Value) error {
		defer func() { last = t }()
		if t-last < eps {
			return fmt.Errorf("pulse of length %g < ε = %g", t-last, eps)
		}
		return nil
	}
}

// DefaultMaxEvents is the event budget applied when Options.MaxEvents is
// zero. Exported so budget-escalating retry policies can escalate from the
// effective default rather than from zero.
const DefaultMaxEvents = 1 << 20

func (o *Options) setDefaults() error {
	if !(o.Horizon > 0) || math.IsInf(o.Horizon, 0) || math.IsNaN(o.Horizon) {
		return fmt.Errorf("sim: horizon %g must be positive and finite", o.Horizon)
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = DefaultMaxEvents
	}
	if o.MaxDeltas == 0 {
		o.MaxDeltas = 10000
	}
	return nil
}

// Result holds the outcome of a run.
type Result struct {
	// Signals maps each recorded node (every output port, every Watch
	// node and every node named in Options.Record) to its signal,
	// truncated at the horizon.
	Signals map[string]signal.Signal
	// Events is the number of delivered (non-canceled) events.
	Events int
	// Horizon echoes the configured horizon.
	Horizon float64
	// Stats is the execution profile of the run; it is populated on every
	// run (aborted runs surface theirs through *AbortError).
	Stats RunStats
}

// The event kernel. Input stimuli are never queued: each port keeps a
// cursor into its (time-ordered) signal, and the run loop merges the ports'
// next times with the queue's minimum. Channel outputs are value events in
// a slab with a free list; a 4-ary min-heap of {at, seq, slot} orders them,
// and cancellation is lazy: a canceled event stays in the heap, flagged,
// until it is popped. Nodes and edges are addressed by int32 index, with
// names resolved once in newSimulation, and every per-round work list is a
// reused slice, so steady-state runs do not allocate per event.

// event is one delivery: a channel output in the slab, or a stimulus
// transition copied into the slab for the batch that delivers it.
type event struct {
	at       float64
	to       signal.Value
	canceled bool
	edge     int32 // index into edges; -1 for input-port stimuli
	node     int32 // destination node
}

// qitem orders one slab slot: by delivery time, then by scheduling order.
type qitem struct {
	at   float64
	seq  int64
	slot int32
}

func (a qitem) before(b qitem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queue is a 4-ary min-heap of qitems: half the depth of a binary heap,
// so a pop sifts down half as many levels.
type queue []qitem

func (q *queue) push(it qitem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !it.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	*q = h
}

func (q *queue) pop() qitem {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for k := c + 1; k < c+4 && k < n; k++ {
				if h[k].before(h[m]) {
					m = k
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

type nodeState struct {
	node    *circuit.Node
	val     signal.Value
	trs     []signal.Transition
	pins    []signal.Value
	fanout  []int32 // indices into the simulation's edges
	touched bool    // queued for evaluation in the current round
	watch   Monitor // Options.Watch entry, if any
	watched bool    // already checked by the current watch pass
	record  bool    // keep every transition and report the signal
}

type edgeState struct {
	from, to int32
	pin      int
	inst     channel.Instance
	// pending holds the slots of the edge's scheduled, not yet delivered
	// and not canceled outputs in scheduling order; pending[:head] are
	// delivered entries awaiting compaction.
	pending []int32
	head    int
}

// retire drops a delivered slot from the pending list. Per-channel output
// times are increasing and canceled events leave the list when canceled,
// so the fired slot is almost always the front one.
func (es *edgeState) retire(slot int32) {
	if es.head < len(es.pending) && es.pending[es.head] == slot {
		es.head++
	} else {
		// Exotic channel models (fault wrappers' extra transitions) can
		// deliver out of scheduling order.
		for i := es.head; i < len(es.pending); i++ {
			if es.pending[i] == slot {
				es.pending = append(es.pending[:i], es.pending[i+1:]...)
				break
			}
		}
	}
	if es.head == len(es.pending) {
		es.pending, es.head = es.pending[:0], 0
	}
}

// add appends a scheduled slot, compacting delivered entries away instead
// of regrowing the list.
func (es *edgeState) add(slot int32) {
	if len(es.pending) == cap(es.pending) && es.head > 0 {
		es.pending, es.head = es.pending[:copy(es.pending, es.pending[es.head:])], 0
	}
	es.pending = append(es.pending, slot)
}

// stimulus is an input port's cursor into its signal.
type stimulus struct {
	node int32
	sig  signal.Signal
	next int // index of the next undelivered transition
}

// Run simulates the circuit with the given input-port signals up to the
// horizon and returns the signals of the output ports and of the nodes
// named in opts.Watch and opts.Record.
//
// A panic raised while simulating (by a gate function, channel model or
// adversary strategy) is recovered and returned as a *PanicError wrapped in
// an *AbortError with the partial statistics, so one bad scenario cannot
// kill a many-run campaign.
func Run(c *circuit.Circuit, inputs map[string]signal.Signal, opts Options) (res *Result, err error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var s *simulation
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: string(debug.Stack())}
			res = nil
			if s != nil {
				err = s.abort(pe)
			} else {
				err = &AbortError{Err: pe}
			}
		}
	}()
	s, err = newSimulation(c, inputs, opts)
	if err != nil {
		return nil, err
	}
	return s.run()
}

type simulation struct {
	opts   Options
	obs    Observer
	nodes  []nodeState
	edges  []edgeState
	cedges []circuit.Edge // the circuit's edges, for names and labels

	slab     []event
	free     []int32 // released slab slots
	queue    queue
	seq      int64
	stims    []stimulus // input ports in circuit order
	stimLeft int        // stimulus transitions not yet delivered

	now   float64
	count int

	// Reused work lists of the delta-cycle loop.
	batch   []int32 // slots delivered at the current timestamp
	touched []int32 // nodes to evaluate in the current round
	changed []int32 // nodes whose value changed in the current round
	dirty   []int32 // watched nodes recorded in the current delta cycle

	stats       RunStats
	start       time.Time
	edgeCancels []int64  // per-edge cancellation counts
	edgeLabels  []string // lazily built "from→to/pin" labels
}

func newSimulation(c *circuit.Circuit, inputs map[string]signal.Signal, opts Options) (*simulation, error) {
	s := &simulation{opts: opts, obs: opts.Observer, start: time.Now()}
	nodes := c.Nodes()
	s.cedges = c.Edges()
	s.nodes = make([]nodeState, len(nodes))
	s.edges = make([]edgeState, len(s.cedges))
	s.edgeCancels = make([]int64, len(s.cedges))
	index := make(map[string]int32, len(nodes))
	npins := 0
	for i, n := range nodes {
		index[n.Name] = int32(i)
		switch n.Kind {
		case circuit.KindGate:
			npins += n.Fn.Arity
		case circuit.KindOutput:
			npins++
		}
	}
	// Pins and the work lists are carved from one backing array each.
	pins := make([]signal.Value, npins)
	nn := len(nodes)
	work := make([]int32, 3*nn+len(s.cedges))
	s.touched, s.changed, s.dirty, s.batch = work[:0:nn], work[nn:nn:2*nn], work[2*nn:2*nn:3*nn], work[3*nn:3*nn]

	// Per-node state with initial values: input ports take the stimulus
	// initial value, gates their declared initial output.
	nports := 0
	for i, n := range nodes {
		ns := &s.nodes[i]
		ns.node = n
		switch n.Kind {
		case circuit.KindInput:
			in, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("sim: no stimulus for input port %q", n.Name)
			}
			ns.val = in.Initial()
			nports++
		case circuit.KindGate:
			ns.val = n.Initial
			ns.pins, pins = pins[:n.Fn.Arity:n.Fn.Arity], pins[n.Fn.Arity:]
		case circuit.KindOutput:
			ns.pins, pins = pins[:1:1], pins[1:]
		}
	}
	for name := range inputs {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("sim: stimulus for unknown input port %q", name)
		}
		if nodes[i].Kind != circuit.KindInput {
			return nil, fmt.Errorf("sim: stimulus target %q is not an input port", name)
		}
	}
	for name, mon := range opts.Watch {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("sim: watch on unknown node %q", name)
		}
		s.nodes[i].watch = mon
		s.nodes[i].record = true
	}
	for _, name := range opts.Record {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("sim: record of unknown node %q", name)
		}
		s.nodes[i].record = true
	}
	// An unrecorded node keeps only its latest transition, which is all the
	// same-time annihilation check needs; those one-entry lists share one
	// backing array.
	last := make([]signal.Transition, nn)
	for i := range s.nodes {
		if ns := &s.nodes[i]; ns.node.Kind == circuit.KindOutput {
			ns.record = true
		} else if !ns.record {
			ns.trs = last[i : i : i+1]
		}
	}

	// Edges: endpoints by index, channel instances and pin initial values
	// (channels copy the initial value of their source).
	bounds := make([]int, nn+1) // fanout list bounds, by source node
	for i, ce := range s.cedges {
		es := &s.edges[i]
		es.from, es.to, es.pin = index[ce.From], index[ce.To], ce.Pin
		if ce.Model != nil {
			es.inst = ce.Model.NewInstance()
		}
		s.nodes[es.to].pins[es.pin] = s.nodes[es.from].val
		bounds[es.from+1]++
	}
	// Fanout lists share one backing array, grouped by source node in
	// edge order.
	fanout := make([]int32, len(s.cedges))
	for i := range s.nodes {
		bounds[i+1] += bounds[i]
		s.nodes[i].fanout = fanout[bounds[i]:bounds[i]:bounds[i+1]]
	}
	for i := range s.edges {
		ns := &s.nodes[s.edges[i].from]
		ns.fanout = append(ns.fanout, int32(i))
	}
	// Output port initial values follow their driver.
	for i := range s.nodes {
		if ns := &s.nodes[i]; ns.node.Kind == circuit.KindOutput {
			ns.val = ns.pins[0]
		}
	}

	// Count the input stimuli in as scheduled: they are validated here and
	// delivered by cursor.
	s.stims = make([]stimulus, 0, nports)
	for i, n := range nodes {
		if n.Kind != circuit.KindInput {
			continue
		}
		in := inputs[n.Name]
		for k := 0; k < in.Len(); k++ {
			tr := in.Transition(k)
			if s.badTime(tr.At) {
				return nil, s.abort(&EventTimeError{At: tr.At, Now: s.now, Node: n.Name})
			}
			s.stats.Scheduled++
			s.stimLeft++
			s.stats.QueueHighWater = s.stimLeft
			if s.obs != nil {
				s.obs.EventScheduled(Event{Now: 0, At: tr.At, To: tr.To, Node: n.Name})
			}
		}
		s.stims = append(s.stims, stimulus{node: int32(i), sig: in})
	}
	return s, nil
}

// badTime rejects non-finite and time-traveling delivery times before they
// can corrupt the heap order (a NaN compares false against everything, so
// it would silently break the queue invariant).
func (s *simulation) badTime(at float64) bool {
	return !s.opts.noTimeCheck && (math.IsNaN(at) || math.IsInf(at, 0) || at < s.now)
}

// schedule enqueues a channel output of edge i.
func (s *simulation) schedule(i int32, at float64, to signal.Value) error {
	es := &s.edges[i]
	if s.badTime(at) {
		return &EventTimeError{At: at, Now: s.now, Node: s.nodes[es.to].node.Name, Channel: s.edgeLabel(i)}
	}
	slot := s.alloc(event{at: at, to: to, edge: i, node: es.to})
	s.queue.push(qitem{at: at, seq: s.seq, slot: slot})
	s.seq++
	s.stats.Scheduled++
	// Stimuli not yet delivered count as queued.
	if n := len(s.queue) + s.stimLeft; n > s.stats.QueueHighWater {
		s.stats.QueueHighWater = n
	}
	es.add(slot)
	if s.obs != nil {
		s.obs.EventScheduled(Event{Now: s.now, At: at, To: to, Node: s.nodes[es.to].node.Name, Channel: s.edgeLabel(i)})
	}
	return nil
}

func (s *simulation) alloc(e event) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[slot] = e
		return slot
	}
	s.slab = append(s.slab, e)
	return int32(len(s.slab) - 1)
}

// edgeLabel returns the "from→to/pin" channel label for edge i, cached
// after first use.
func (s *simulation) edgeLabel(i int32) string {
	if s.edgeLabels == nil {
		s.edgeLabels = make([]string, len(s.edges))
	}
	if s.edgeLabels[i] == "" {
		e := s.cedges[i]
		s.edgeLabels[i] = fmt.Sprintf("%s→%s/%d", e.From, e.To, e.Pin)
	}
	return s.edgeLabels[i]
}

// finalizeStats stamps the wall clock and materializes the per-channel
// cancellation map (only channels that actually canceled).
func (s *simulation) finalizeStats() {
	s.stats.Duration = time.Since(s.start)
	for i, n := range s.edgeCancels {
		if n == 0 {
			continue
		}
		if s.stats.CancelsByChannel == nil {
			s.stats.CancelsByChannel = make(map[string]int64)
		}
		s.stats.CancelsByChannel[s.edgeLabel(int32(i))] += n
	}
}

// abort wraps a mid-run error with the partial statistics.
func (s *simulation) abort(err error) error {
	s.finalizeStats()
	return &AbortError{Stats: s.stats, Err: err}
}

// nextTime returns the earliest pending delivery time: the queue's minimum
// merged with every port's next stimulus.
func (s *simulation) nextTime() (float64, bool) {
	t, ok := 0.0, len(s.queue) > 0
	if ok {
		t = s.queue[0].at
	}
	for i := range s.stims {
		st := &s.stims[i]
		if st.next < st.sig.Len() {
			if at := st.sig.Transition(st.next).At; !ok || at < t {
				t, ok = at, true
			}
		}
	}
	return t, ok
}

func (s *simulation) run() (*Result, error) {
	// Time-0 evaluation: gate outputs switch from their declared initial
	// value to the Boolean function of their (initial) inputs.
	if err := s.deltaCycle(0, true); err != nil {
		return nil, s.abort(err)
	}
	if err := s.runWatches(0); err != nil {
		return nil, s.abort(err)
	}

	for {
		t, ok := s.nextTime()
		if !ok || t > s.opts.Horizon {
			break
		}
		// Collect every event at exactly this timestamp: stimuli first, in
		// port order (they were scheduled before any channel output), then
		// channel outputs in scheduling order.
		s.batch = s.batch[:0]
		for i := range s.stims {
			st := &s.stims[i]
			if st.next < st.sig.Len() {
				if tr := st.sig.Transition(st.next); tr.At == t {
					st.next++
					s.stimLeft--
					s.batch = append(s.batch, s.alloc(event{at: t, to: tr.To, edge: -1, node: st.node}))
				}
			}
		}
		for len(s.queue) > 0 && s.queue[0].at == t {
			it := s.queue.pop()
			if s.slab[it.slot].canceled {
				s.free = append(s.free, it.slot)
				continue
			}
			s.batch = append(s.batch, it.slot)
		}
		if len(s.batch) == 0 {
			continue
		}
		s.now = t
		s.count += len(s.batch)
		s.stats.Delivered += int64(len(s.batch))
		if s.obs != nil {
			for _, slot := range s.batch {
				e := &s.slab[slot]
				ev := Event{Now: t, At: e.at, To: e.to, Node: s.nodes[e.node].node.Name}
				if e.edge >= 0 {
					ev.Channel = s.edgeLabel(e.edge)
				}
				s.obs.EventDelivered(ev)
			}
		}
		if s.count > s.opts.MaxEvents {
			return nil, s.abort(fmt.Errorf("%w: budget %d at t=%g", ErrEventBudget, s.opts.MaxEvents, t))
		}
		if s.opts.Deadline > 0 && time.Since(s.start) > s.opts.Deadline {
			return nil, s.abort(fmt.Errorf("%w: %v elapsed at t=%g after %d events", ErrDeadline, s.opts.Deadline, t, s.count))
		}
		if s.opts.Context != nil {
			if cerr := s.opts.Context.Err(); cerr != nil {
				return nil, s.abort(fmt.Errorf("%w at t=%g after %d events: %v", ErrCanceled, t, s.count, cerr))
			}
		}
		if err := s.deltaCycle(t, false); err != nil {
			return nil, s.abort(err)
		}
		if err := s.runWatches(t); err != nil {
			return nil, s.abort(err)
		}
	}

	s.finalizeStats()
	res := &Result{Signals: make(map[string]signal.Signal), Events: s.count, Horizon: s.opts.Horizon, Stats: s.stats}
	for i := range s.nodes {
		ns := &s.nodes[i]
		if !ns.record {
			continue
		}
		var initial signal.Value
		switch ns.node.Kind {
		case circuit.KindGate:
			initial = ns.node.Initial
		default:
			if len(ns.trs) > 0 {
				// Reconstruct the initial value from the first transition.
				initial = ns.trs[0].To.Not()
			} else {
				initial = ns.val
			}
		}
		sig, err := signal.New(initial, ns.trs...)
		if err != nil {
			return nil, &AbortError{Stats: s.stats, Err: fmt.Errorf("sim: node %q recorded invalid signal: %w", ns.node.Name, err)}
		}
		res.Signals[ns.node.Name] = sig
	}
	return res, nil
}

// deltaCycle applies the batch of simultaneous events at time t (or, for
// the initial evaluation, touches every gate and output port) and iterates
// zero-delay propagation until the circuit is stable at this timestamp,
// recording the round count in the stats histogram.
func (s *simulation) deltaCycle(t float64, initial bool) error {
	rounds, err := s.deltaRun(t, initial)
	if err != nil {
		return err
	}
	s.stats.observeDeltaRounds(rounds)
	if s.obs != nil {
		s.obs.DeltaCycleDone(t, rounds)
	}
	return nil
}

// touch queues node i for evaluation in the current round.
func (s *simulation) touch(i int32) {
	if ns := &s.nodes[i]; !ns.touched {
		ns.touched = true
		s.touched = append(s.touched, i)
	}
}

// deltaRun is the delta-cycle body; it returns the number of evaluation
// rounds the timestamp needed to stabilize. Nodes are evaluated in the
// order they were first touched and changes propagate in evaluation order,
// so every run of the same inputs makes the same calls in the same order.
func (s *simulation) deltaRun(t float64, initial bool) (int, error) {
	s.touched, s.changed = s.touched[:0], s.changed[:0]
	if initial {
		for i := range s.nodes {
			if s.nodes[i].node.Kind != circuit.KindInput {
				s.touch(int32(i))
			}
		}
	}
	for _, slot := range s.batch {
		e := s.slab[slot]
		s.free = append(s.free, slot)
		if e.edge < 0 {
			// Changed input ports propagate like gate outputs.
			if ns := &s.nodes[e.node]; ns.val != e.to {
				ns.val = e.to
				s.record(e.node, t, e.to)
				s.changed = append(s.changed, e.node)
			}
			continue
		}
		es := &s.edges[e.edge]
		es.retire(slot)
		s.nodes[e.node].pins[es.pin] = e.to
		s.touch(e.node)
	}
	s.batch = s.batch[:0]

	for round := 0; ; round++ {
		if round > s.opts.MaxDeltas {
			return round, fmt.Errorf("%w at t=%g", errOscillation, t)
		}
		// Evaluate touched gates and output ports.
		for _, i := range s.touched {
			ns := &s.nodes[i]
			ns.touched = false
			var newV signal.Value
			switch ns.node.Kind {
			case circuit.KindGate:
				newV = ns.node.Fn.Eval(ns.pins)
			case circuit.KindOutput:
				newV = ns.pins[0]
			}
			if newV != ns.val {
				ns.val = newV
				s.record(i, t, newV)
				s.changed = append(s.changed, i)
			}
		}
		s.touched = s.touched[:0]
		if len(s.changed) == 0 {
			return round + 1, nil
		}
		// Propagate changes through outgoing edges.
		for _, i := range s.changed {
			ns := &s.nodes[i]
			for _, idx := range ns.fanout {
				es := &s.edges[idx]
				if es.inst == nil {
					// Zero-delay edge: deliver within this timestamp.
					s.nodes[es.to].pins[es.pin] = ns.val
					s.touch(es.to)
					continue
				}
				act := es.inst.Input(t, ns.val)
				if act.Cancel {
					if err := s.cancelLast(idx, t); err != nil {
						return round + 1, err
					}
				}
				// No defensive clamp on scheduled times: well-behaved
				// instances clamp past-due outputs themselves (the
				// documented online divergence), so a past/non-finite time
				// is a bug in the producing model and schedule rejects it
				// as ErrBadEventTime.
				if act.Schedule {
					if err := s.schedule(idx, act.At, act.To); err != nil {
						return round + 1, err
					}
				}
				for _, ex := range act.Extra {
					if err := s.schedule(idx, ex.At, ex.To); err != nil {
						return round + 1, err
					}
				}
			}
		}
		s.changed = s.changed[:0]
		if len(s.touched) == 0 {
			return round + 1, nil
		}
	}
}

// cancelLast cancels edge i's youngest pending output at time t: it is
// flagged in place and skipped when the queue pops it.
func (s *simulation) cancelLast(i int32, t float64) error {
	es := &s.edges[i]
	e := s.cedges[i]
	n := len(es.pending)
	if n == es.head {
		return fmt.Errorf("sim: channel %s→%s canceled with no pending output at t=%g", e.From, e.To, t)
	}
	last := &s.slab[es.pending[n-1]]
	if last.at <= t {
		return fmt.Errorf("sim: channel %s→%s canceled an already-fired output at t=%g", e.From, e.To, t)
	}
	last.canceled = true
	es.pending = es.pending[:n-1]
	if es.head == len(es.pending) {
		es.pending, es.head = es.pending[:0], 0
	}
	s.stats.Canceled++
	s.edgeCancels[i]++
	if s.obs != nil {
		s.obs.EventCanceled(Event{Now: t, At: last.at, To: last.to, Node: e.To, Channel: s.edgeLabel(i)})
	}
	return nil
}

// record appends a transition to node i, annihilating a same-time opposite
// pair, and marks watched nodes for the post-delta watch pass. An
// unrecorded node's list holds at most the latest transition: two
// consecutive transitions are never at the same time (they would have
// annihilated), so the one before the latest can never take part in the
// check.
func (s *simulation) record(i int32, t float64, v signal.Value) {
	ns := &s.nodes[i]
	if ns.watch != nil {
		s.dirty = append(s.dirty, i)
	}
	if n := len(ns.trs); n > 0 && ns.trs[n-1].At == t && ns.trs[n-1].To == v.Not() {
		ns.trs = ns.trs[:n-1]
		s.stats.Annihilated++
		if s.obs != nil {
			s.obs.Annihilation(ns.node.Name, t)
		}
		return
	}
	if !ns.record {
		ns.trs = ns.trs[:0]
	}
	ns.trs = append(ns.trs, signal.Transition{At: t, To: v})
}

// runWatches invokes monitors, in recording order, for watched nodes whose
// recorded signal gained a transition at time t during the just-finished
// delta cycle (annihilated zero-width artifacts are not reported).
func (s *simulation) runWatches(t float64) error {
	for _, i := range s.dirty {
		ns := &s.nodes[i]
		if ns.watched {
			continue
		}
		ns.watched = true
		if n := len(ns.trs); n > 0 && ns.trs[n-1].At == t {
			if err := ns.watch(t, ns.trs[n-1].To); err != nil {
				return &WatchError{Node: ns.node.Name, At: t, Err: err}
			}
		}
	}
	for _, i := range s.dirty {
		s.nodes[i].watched = false
	}
	s.dirty = s.dirty[:0]
	return nil
}
