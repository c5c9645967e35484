// Package splitmix holds the splitmix64 mixer behind every seeded
// decorrelation stream in the stack: ring placement, retry jitter, trace
// identifiers, chaos decisions and attack generation streams.
package splitmix

// Gamma is splitmix64's Weyl-sequence increment (2⁶⁴/φ): a generator
// steps its state by Gamma and finalizes the result with Mix.
const Gamma = 0x9E3779B97F4A7C15

// Mix is the splitmix64 finalizer: a bijection on uint64 that diffuses
// every input bit across the output.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next steps a splitmix64 generator held in state and returns its output.
func Next(state *uint64) uint64 {
	*state += Gamma
	return Mix(*state)
}
