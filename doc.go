// Package involution is a faithful binary circuit model with adversarial
// noise: a Go implementation of the η-involution delay model of Függer,
// Maier, Najvirt, Nowak and Schmid (DATE 2018), together with every
// substrate needed to reproduce the paper — binary continuous-time
// signals, involution delay functions (analytic exp-channels, numeric
// inverses, measured tables), classical baseline channels (pure, inertial,
// degradation delay model), circuit graphs with an event-driven simulator,
// the Short-Pulse Filtration theory and circuit of Section IV, an analog
// inverter-chain measurement substrate standing in for the UMC-90 ASIC of
// Section V, model fitting, deviation/η-band analysis, and a bounded
// adversarial model checker.
//
// The implementation lives under internal/; see README.md for the map,
// DESIGN.md for the system inventory and experiment index, and
// EXPERIMENTS.md for the paper-versus-measured record. Executables:
//
//	cmd/simctl    the client CLI: simulate a netlist (run) or the Fig. 5
//	              SPF circuit (spf), run fault campaigns, drive a fleet,
//	              flood a simd node with overload traffic (load)
//	cmd/simd      simulation service daemon
//	cmd/figures   regenerate every figure's data (CSV + ASCII preview)
//	cmd/delayfit  fit exp-channel parameters to delay samples
//
// The benchmark harness in bench_test.go regenerates each experiment and
// reports its headline numbers as benchmark metrics.
package involution
