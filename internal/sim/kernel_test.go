package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"involution/internal/circuit"
	"involution/internal/netlist"
	"involution/internal/signal"
)

// kernelChain builds the kernel workload's shape: 8 NOT stages joined by
// η-involution exp channels under seeded uniform adversaries, driven by a
// seeded train of 2,000 pulses whose widths straddle the channels'
// cancellation bound, so the queue sees steady non-FIFO cancellation.
func kernelChain(tb testing.TB) (*circuit.Circuit, map[string]signal.Signal, Options) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var nl strings.Builder
	nl.WriteString("circuit kchain\ninput i\noutput o\n")
	for k := 1; k <= 8; k++ {
		fmt.Fprintf(&nl, "gate g%d NOT init=%d\n", k, k%2)
	}
	prev := "i"
	for k := 1; k <= 8; k++ {
		fmt.Fprintf(&nl, "channel %s g%d 0 exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=uniform seed=%d\n", prev, k, rng.Int63())
		prev = fmt.Sprintf("g%d", k)
	}
	fmt.Fprintf(&nl, "channel %s o 0 zero\n", prev)
	c, err := netlist.Parse(strings.NewReader(nl.String()))
	if err != nil {
		tb.Fatal(err)
	}
	var edges []float64
	t := 1.0
	for p := 0; p < 2000; p++ {
		w := 0.5 + 1.5*rng.Float64()
		edges = append(edges, t, t+w)
		t += w + 0.5 + 2*rng.Float64()
	}
	in, err := signal.FromEdges(signal.Low, edges...)
	if err != nil {
		tb.Fatal(err)
	}
	return c, map[string]signal.Signal{"i": in}, Options{Horizon: t + 50}
}

// BenchmarkKernelChain times Run on the kernel chain and reports delivered
// events per second and allocations per delivered event.
func BenchmarkKernelChain(b *testing.B) {
	c, inputs, opts := kernelChain(b)
	b.ReportAllocs()
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(c, inputs, opts)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.StopTimer()
	total := float64(events) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(events), "events")
}

// TestKernelChainAllocsPerEvent guards the kernel's steady state: a run on
// the kernel chain may allocate at most 0.012 times per delivered event and
// 100,000 bytes in all, set-up and result assembly included. The run
// allocated 141 times and 73,565 bytes on amd64 (15,522 events); most of
// the bytes are the eight adversaries' seeded math/rand sources. Keeping
// the full signal of all 18 nodes took 1.2 MB.
func TestKernelChainAllocsPerEvent(t *testing.T) {
	c, inputs, opts := kernelChain(t)
	res, err := Run(c, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(c, inputs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(res.Events); per > 0.012 {
		t.Fatalf("%.0f allocs for %d events: %.4f per event, want ≤ 0.012", allocs, res.Events, per)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(c, inputs, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 100000 {
		t.Fatalf("a run allocated %d bytes, want ≤ 100,000", b)
	}
}
