package sim

import (
	"time"

	"involution/internal/signal"
)

// Event is the observer's view of one scheduled output transition.
type Event struct {
	// Now is the simulation time of the action that produced the callback
	// (the causing input transition for schedules and cancels, the delivery
	// time itself for deliveries).
	Now float64
	// At is the (scheduled) delivery time of the transition.
	At float64
	// To is the transition's target value.
	To signal.Value
	// Node is the destination node of the transition.
	Node string
	// Channel labels the delay channel carrying the transition as
	// "from→to/pin"; it is empty for input-port stimuli.
	Channel string
}

// Observer receives scheduler callbacks during a run. Implementations must
// be fast: every hook is invoked synchronously on the simulation hot path.
// A nil Options.Observer skips all hook dispatch (the always-on RunStats
// counters are maintained regardless).
type Observer interface {
	// EventScheduled fires when a channel (or the stimulus loader) enqueues
	// a future output transition.
	EventScheduled(e Event)
	// EventDelivered fires when a queued transition reaches its
	// destination node.
	EventDelivered(e Event)
	// EventCanceled fires when a channel cancels its youngest pending
	// output (the non-FIFO cancellation rule).
	EventCanceled(e Event)
	// DeltaCycleDone fires after each timestamp stabilizes, with the number
	// of zero-delay evaluation rounds it took.
	DeltaCycleDone(t float64, rounds int)
	// Annihilation fires when a node records a zero-width pulse (two
	// opposite same-time transitions) that is dropped from its signal.
	Annihilation(node string, t float64)
}

// Observers fans callbacks out to several observers in order.
type Observers []Observer

// EventScheduled implements Observer.
func (m Observers) EventScheduled(e Event) {
	for _, o := range m {
		o.EventScheduled(e)
	}
}

// EventDelivered implements Observer.
func (m Observers) EventDelivered(e Event) {
	for _, o := range m {
		o.EventDelivered(e)
	}
}

// EventCanceled implements Observer.
func (m Observers) EventCanceled(e Event) {
	for _, o := range m {
		o.EventCanceled(e)
	}
}

// DeltaCycleDone implements Observer.
func (m Observers) DeltaCycleDone(t float64, rounds int) {
	for _, o := range m {
		o.DeltaCycleDone(t, rounds)
	}
}

// Annihilation implements Observer.
func (m Observers) Annihilation(node string, t float64) {
	for _, o := range m {
		o.Annihilation(node, t)
	}
}

// DeltaRoundBuckets is the fixed histogram layout of RunStats.DeltaRounds:
// bucket i counts delta cycles whose zero-delay round count is ≤ the i-th
// bound (and greater than the previous one); the final bucket counts the
// overflow. It mirrors obs.DeltaRoundBuckets so CLI exposition can copy the
// counts straight into a metrics histogram.
var DeltaRoundBuckets = [7]int{1, 2, 3, 4, 8, 16, 32}

// RunStats is the always-on execution profile of a run. It is embedded in
// Result and, for aborted runs, carried by AbortError; maintaining it costs
// only integer bumps on the hot path (no allocation per event).
type RunStats struct {
	// Scheduled counts every enqueued event: input stimuli plus channel
	// output transitions (including ones later canceled).
	Scheduled int64 `json:"scheduled"`
	// Delivered counts events that reached their destination (equals
	// Result.Events).
	Delivered int64 `json:"delivered"`
	// Canceled counts channel outputs canceled by the non-FIFO rule before
	// firing.
	Canceled int64 `json:"canceled"`
	// Annihilated counts zero-width pulses dropped from recorded signals
	// (pairs of same-time opposite transitions; each pair counts once).
	Annihilated int64 `json:"annihilated"`
	// QueueHighWater is the maximum number of events pending delivery at
	// once: queued channel outputs (canceled ones until the queue pops
	// them) plus input stimuli not yet delivered.
	QueueHighWater int `json:"queue_high_water"`
	// DeltaCycles is the number of distinct timestamps processed
	// (including the time-0 initial evaluation).
	DeltaCycles int64 `json:"delta_cycles"`
	// MaxDeltaRounds is the largest number of zero-delay evaluation rounds
	// any single timestamp needed.
	MaxDeltaRounds int `json:"max_delta_rounds"`
	// DeltaRounds histograms delta cycles by round count; see
	// DeltaRoundBuckets for the bucket bounds (the 8th bucket is overflow).
	DeltaRounds [8]int64 `json:"delta_rounds"`
	// CancelsByChannel counts cancellations per channel label
	// ("from→to/pin"); channels with zero cancellations are omitted, and
	// the map is nil when no cancellation occurred.
	CancelsByChannel map[string]int64 `json:"cancels_by_channel,omitempty"`
	// Duration is the wall-clock time of the run.
	Duration time.Duration `json:"duration_ns"`
}

// EventsPerSecond returns delivered-event throughput over the wall-clock
// duration (0 if the run was instantaneous).
func (s *RunStats) EventsPerSecond() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Delivered) / s.Duration.Seconds()
}

// Merge folds another run's statistics into s: counters and histograms
// add, high-water marks take the maximum, and durations accumulate. Use it
// to report an aggregate budget over an experiment made of several runs.
func (s *RunStats) Merge(o RunStats) {
	s.Scheduled += o.Scheduled
	s.Delivered += o.Delivered
	s.Canceled += o.Canceled
	s.Annihilated += o.Annihilated
	if o.QueueHighWater > s.QueueHighWater {
		s.QueueHighWater = o.QueueHighWater
	}
	s.DeltaCycles += o.DeltaCycles
	if o.MaxDeltaRounds > s.MaxDeltaRounds {
		s.MaxDeltaRounds = o.MaxDeltaRounds
	}
	for i, n := range o.DeltaRounds {
		s.DeltaRounds[i] += n
	}
	if len(o.CancelsByChannel) > 0 {
		if s.CancelsByChannel == nil {
			s.CancelsByChannel = make(map[string]int64, len(o.CancelsByChannel))
		}
		for ch, n := range o.CancelsByChannel {
			s.CancelsByChannel[ch] += n
		}
	}
	s.Duration += o.Duration
}

// observeDeltaRounds records one finished delta cycle.
func (s *RunStats) observeDeltaRounds(rounds int) {
	s.DeltaCycles++
	if rounds > s.MaxDeltaRounds {
		s.MaxDeltaRounds = rounds
	}
	i := 0
	for i < len(DeltaRoundBuckets) && rounds > DeltaRoundBuckets[i] {
		i++
	}
	s.DeltaRounds[i]++
}

// AbortError is returned by Run when a simulation stops before its horizon
// — event-budget exhaustion, zero-delay oscillation, a watch violation, or
// a channel protocol error. It carries the statistics accumulated up to
// the abort: aborted runs are precisely the ones worth profiling. Unwrap
// exposes the underlying cause (e.g. *WatchError).
type AbortError struct {
	// Stats is the partial execution profile at the abort point.
	Stats RunStats
	// Err is the underlying cause.
	Err error
}

// Error reports the cause.
func (e *AbortError) Error() string { return e.Err.Error() }

// Unwrap returns the cause.
func (e *AbortError) Unwrap() error { return e.Err }
