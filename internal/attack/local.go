package attack

import "involution/internal/server"

// NewLocal returns the in-process Evaluator: a simd server that is never
// mounted on HTTP, so every evaluation runs simd's own compile → cache →
// execute → store path on the caller's goroutine and a campaign scored
// locally is bit-identical to one scored by a fleet. The flight recorder
// is off; nothing reads it here.
func NewLocal() *server.Server {
	return server.New(server.Config{FlightOff: true})
}
