// Package attack searches for the weakest perturbation that breaks a
// circuit. Where internal/adversary replays *fixed* η strategies and
// internal/fault replays *fixed* scenario lists, this package optimizes
// over them: an Objective renders points of a quantized attack space
// (per-channel η schedules, adversary parameters, fault placements and
// strengths, all under an attack budget) as content-addressed simulation
// requests, a Searcher (grid sweep, simulated annealing, cross-entropy)
// proposes generation after generation of candidates, and a campaign
// fans every generation out through an Evaluator — normally the
// internal/cluster coordinator, so evaluations are cache- and lake-deduped
// across generations, runs and nodes for free.
//
// Everything is deterministic for a fixed seed: spaces are lattices (so
// proposals collide and dedup), searcher randomness derives from
// (seed, generation, stream), and searcher state is a pure function of the
// observed generations — which is what makes the crash-safe generation
// journal (see Journal) sufficient to resume a killed search bit-exactly.
package attack

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"involution/internal/server/api"
)

// InfeasibleScore marks candidates rejected without evaluation (outside
// the attack budget). It is a finite sentinel — JSON cannot carry ±Inf —
// chosen far below any reachable objective value.
const InfeasibleScore = -1e30

// AbortScore scores candidates whose simulation aborted (budget, deadline,
// panic). Aborts are informative — a search steering into event explosions
// should back off — so the sentinel is harsh but distinct from infeasible.
const AbortScore = -1e6

// Dim is one quantized dimension of an attack space. Values live on the
// lattice Min + k·Step, clamped to [Min, Max]; the quantization is what
// makes independently proposed candidates collide into cache hits.
type Dim struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Step float64 `json:"step"` // 0: the dimension is frozen at Min
	// Cost weights this dimension in the budget constraint: a candidate is
	// feasible iff Σ Cost·value ≤ Space.Budget over the Cost>0 dimensions.
	// Zero-cost dimensions are free (placement, phase, timing).
	Cost float64 `json:"cost,omitempty"`
}

// Snap quantizes v onto the dimension's lattice and clamps it into range.
func (d Dim) Snap(v float64) float64 {
	if math.IsNaN(v) {
		return d.Min
	}
	if d.Step > 0 {
		v = d.Min + math.Round((v-d.Min)/d.Step)*d.Step
	} else {
		v = d.Min
	}
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	// Scrub accumulated binary-fraction dirt (0.15000000000000002) after
	// clamping, so it also cleans frozen dims whose Min came in dirty:
	// lattice values must render identically however they were reached,
	// or dedup keys and request hashes stop colliding.
	return math.Round(v*1e9) / 1e9
}

// Levels is the lattice size of the dimension (1 when frozen).
func (d Dim) Levels() int {
	if d.Step <= 0 || d.Max <= d.Min {
		return 1
	}
	return int(math.Floor((d.Max-d.Min)/d.Step+1e-9)) + 1
}

// Space is a quantized attack space with a budget constraint.
type Space struct {
	Dims []Dim `json:"dims"`
	// Budget bounds Σ Cost·value over the Cost>0 dimensions. Zero or
	// negative means unconstrained.
	Budget float64 `json:"budget,omitempty"`
}

// Snap quantizes every coordinate of x onto the space's lattice.
func (s Space) Snap(x []float64) []float64 {
	out := make([]float64, len(s.Dims))
	for i, d := range s.Dims {
		v := d.Min
		if i < len(x) {
			v = x[i]
		}
		out[i] = d.Snap(v)
	}
	return out
}

// Cost is the candidate's budget expenditure Σ Cost·value.
func (s Space) Cost(x []float64) float64 {
	c := 0.0
	for i, d := range s.Dims {
		if d.Cost > 0 && i < len(x) {
			c += d.Cost * x[i]
		}
	}
	return c
}

// Feasible reports whether the (snapped) candidate is inside the budget.
func (s Space) Feasible(x []float64) bool {
	return s.Budget <= 0 || s.Cost(x) <= s.Budget+1e-12
}

// Key renders the snapped candidate as its canonical identity
// "name=v name=v …" — the within-run dedup key (the cross-run key is the
// content hash of the rendered request).
func (s Space) Key(x []float64) string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		parts[i] = d.Name + "=" + strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, " ")
}

// Eval is the outcome of evaluating one candidate.
type Eval struct {
	// Score is the objective value (higher is a stronger attack).
	Score float64 `json:"score"`
	// Breaking marks candidates that achieved the objective outright
	// (defeated SPF, flipped the classification).
	Breaking bool `json:"breaking,omitempty"`
	// Detail is a short human-readable outcome ("defeat out.tr=3", the
	// fault outcome, an abort class).
	Detail string `json:"detail,omitempty"`
	// Dedup records how the evaluation was satisfied without a fresh
	// simulation: "memo" (this run already evaluated the key), "mem" /
	// "lake" (the fleet's cache tiers answered it). Empty: fresh run.
	Dedup string `json:"dedup,omitempty"`
}

// Scored is a journaled, fully evaluated candidate.
type Scored struct {
	X    []float64 `json:"x"`
	Key  string    `json:"key"`
	Eval Eval      `json:"eval"`
}

// Objective renders attack-space candidates as content-addressed
// simulation requests and scores their results. Objectives must be pure:
// the same candidate always renders to the same request (that is what
// makes cluster/lake dedup sound) and the same record always scores the
// same evaluation.
type Objective interface {
	// Name is the objective's stable identifier (journal header, reports).
	Name() string
	// Space is the attack space the searchers optimize over.
	Space() Space
	// Request renders the snapped candidate as one simd job.
	Request(x []float64) (api.Request, error)
	// Score evaluates the completed (or aborted) record for the candidate.
	Score(x []float64, rec api.Record) (Eval, error)
	// Describe renders the candidate for human-facing reports.
	Describe(x []float64) string
}

// Evaluator runs one content-addressed request. *cluster.Coordinator
// implements it over a fleet; *server.Server (NewLocal) runs simd's own
// job path in-process.
type Evaluator interface {
	RunOne(ctx context.Context, req api.Request) (api.Record, error)
}

// Constraint situates one candidate's η interval against the paper's
// faithfulness constraint (C): η⁺ + η⁻ < δ↓(−η⁺) − δmin. Objectives whose
// space includes η dimensions implement ConstraintReporter so reports can
// show how far past the feasible region the best attacks live.
type Constraint struct {
	EtaPlus  float64 `json:"eta_plus"`
	EtaMinus float64 `json:"eta_minus"`
	// BoundaryMinus is the largest η⁻ satisfying (C) at this η⁺ (the
	// feasible-region boundary on the η⁻ axis); negative when no η⁻ ≥ 0 is
	// feasible at this η⁺.
	BoundaryMinus float64 `json:"boundary_minus"`
	// Slack is δ↓(−η⁺) − δmin − (η⁺+η⁻): negative iff (C) is violated.
	Slack    float64 `json:"slack"`
	Violated bool    `json:"violated"`
}

func (c Constraint) String() string {
	side := "inside (C)"
	if c.Violated {
		side = "VIOLATES (C)"
	}
	return fmt.Sprintf("eta+=%.4g eta-=%.4g %s (slack %+.4g, boundary eta- %.4g)",
		c.EtaPlus, c.EtaMinus, side, c.Slack, c.BoundaryMinus)
}

// ConstraintReporter is implemented by objectives that can place a
// candidate relative to constraint (C).
type ConstraintReporter interface {
	Constraint(x []float64) Constraint
}
