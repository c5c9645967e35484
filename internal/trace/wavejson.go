package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"involution/internal/signal"
)

// WaveJSON renders signals in the WaveDrom WaveJSON format, one lane per
// signal, discretized to ticks of the given size over [0, horizon]. A lane
// shows the signal value at the *start* of each tick; transitions inside a
// tick appear at the next tick boundary (choose the tick small enough for
// the timing detail needed).
func WriteWaveJSON(w io.Writer, signals map[string]signal.Signal, tick, horizon float64) error {
	if tick <= 0 || horizon <= 0 {
		return fmt.Errorf("trace: tick %g and horizon %g must be positive", tick, horizon)
	}
	// Compare in float64, before any conversion: the tick count can
	// overflow int on 32-bit hosts, and a NaN or infinite one never fits.
	const budget = 1 << 20
	ticks := math.Floor(horizon/tick) + 1
	if !(ticks <= budget) {
		return fmt.Errorf("trace: %.0f ticks exceed the WaveJSON budget of %d; increase the tick size", ticks, budget)
	}
	n := int(ticks)
	names := make([]string, 0, len(signals))
	for name := range signals {
		names = append(names, name)
	}
	sort.Strings(names)

	type lane struct {
		Name string `json:"name"`
		Wave string `json:"wave"`
	}
	doc := struct {
		Signal []lane            `json:"signal"`
		Config map[string]string `json:"config,omitempty"`
	}{Config: map[string]string{"hscale": "1"}}

	for _, name := range names {
		s := signals[name]
		wave := make([]byte, 0, n)
		var prev byte
		for i := 0; i < n; i++ {
			t := float64(i) * tick
			c := byte('0')
			if s.At(t) == signal.High {
				c = '1'
			}
			if i > 0 && c == prev {
				wave = append(wave, '.')
			} else {
				wave = append(wave, c)
				prev = c
			}
		}
		doc.Signal = append(doc.Signal, lane{Name: name, Wave: string(wave)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
