package sim

import (
	"testing"

	"involution/internal/channel"
	"involution/internal/signal"
)

// BenchmarkDeepPendingRetirement drives a single long-latency channel with
// a fast pulse train so that hundreds of output events are in flight on one
// edge at steady state. Retiring a fired output must stay O(1) amortized
// on both sides of the channel: the edge's pending list of slab slots
// advances a head index on delivery and compacts only when an append would
// regrow it, and the channel's single-history instance retires its pending
// output times the same way. A splice or copy per delivery would make this
// workload quadratic; this benchmark is the regression guard.
func BenchmarkDeepPendingRetirement(b *testing.B) {
	pure, err := channel.NewPure(500)
	if err != nil {
		b.Fatal(err)
	}
	c := bufCircuit(b, pure)
	in, err := signal.Train(0, 0.4, 1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	var events int
	var hwm int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(c, inputs, Options{Horizon: 3000, MaxEvents: 1 << 22})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		hwm = res.Stats.QueueHighWater
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(hwm), "queue_hwm")
}

// BenchmarkCancellationHeavyChain pushes sub-threshold glitches through an
// inertial channel so nearly every scheduled output is canceled before it
// fires — the cancellation-churn regime of long adversarial executions.
func BenchmarkCancellationHeavyChain(b *testing.B) {
	inert, err := channel.NewInertial(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := bufCircuit(b, inert)
	in, err := signal.Train(0, 0.5, 1.2, 2000)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	var canceled int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(c, inputs, Options{Horizon: 5000, MaxEvents: 1 << 22})
		if err != nil {
			b.Fatal(err)
		}
		canceled = res.Stats.Canceled
	}
	b.ReportMetric(float64(canceled), "canceled")
}

// noopObserver measures pure hook-dispatch cost.
type noopObserver struct{}

func (noopObserver) EventScheduled(Event)         {}
func (noopObserver) EventDelivered(Event)         {}
func (noopObserver) EventCanceled(Event)          {}
func (noopObserver) DeltaCycleDone(float64, int)  {}
func (noopObserver) Annihilation(string, float64) {}

// BenchmarkEventTimeValidation compares scheduling with the NaN/±Inf/
// time-travel guard (the shipped default) against the unexported escape
// hatch that skips it. The ≤2 % validation budget is not gated: checking
// it needs repeated on/off samples (`go test -bench -count N`), not one.
func BenchmarkEventTimeValidation(b *testing.B) {
	pure, err := channel.NewPure(50)
	if err != nil {
		b.Fatal(err)
	}
	c := bufCircuit(b, pure)
	in, err := signal.Train(0, 0.4, 1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	for _, bc := range []struct {
		name string
		skip bool
	}{{"on", false}, {"off", true}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, inputs, Options{Horizon: 2000, MaxEvents: 1 << 22, noTimeCheck: bc.skip}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObserverOverhead compares the no-observer fast path against a
// no-op observer on a pipe with heavy event traffic. The ≤2 % fast-path
// budget is not gated: checking it needs repeated samples, not one.
func BenchmarkObserverOverhead(b *testing.B) {
	pure, err := channel.NewPure(50)
	if err != nil {
		b.Fatal(err)
	}
	c := bufCircuit(b, pure)
	in, err := signal.Train(0, 0.4, 1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]signal.Signal{"i": in}
	for _, bc := range []struct {
		name string
		obs  Observer
	}{{"none", nil}, {"noop", noopObserver{}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, inputs, Options{Horizon: 2000, MaxEvents: 1 << 22, Observer: bc.obs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
