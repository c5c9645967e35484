package adversary

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Spec selects a registered strategy by name, with the seed feeding the
// randomized ones and Params carrying the strategy's numeric parameters.
// A Spec is a complete, serializable description of one adversary — it is
// what netlist channel options, CLI flags and attack-space candidates all
// reduce to before strategy construction.
type Spec struct {
	Name   string
	Seed   int64
	Params map[string]float64
}

// String renders the spec as "name" or "name:k=v,k=v" with the parameters
// in sorted key order (deterministic; seed excluded).
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.FormatFloat(s.Params[k], 'g', -1, 64)
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

// param returns the named parameter or def when absent.
func (s Spec) param(key string, def float64) float64 {
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// rng builds the spec's deterministic random stream.
func (s Spec) rng() *rand.Rand { return rand.New(rand.NewSource(s.Seed)) }

// checkParams rejects parameters no constructor consumes, so a typo in a
// netlist or attack space fails loudly instead of silently running the
// default experiment.
func (s Spec) checkParams(known ...string) error {
	for k := range s.Params {
		found := false
		for _, ok := range known {
			if k == ok {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("adversary: strategy %q does not take parameter %q", s.Name, k)
		}
	}
	return nil
}

// Constructor builds a fresh strategy instance from a spec. Constructors
// must return a NEW instance per call (strategies are stateful in general)
// and must be deterministic in the spec.
type Constructor func(Spec) (Strategy, error)

// registration is one registered strategy: its constructor and the names
// of the parameters it takes.
type registration struct {
	build  Constructor
	params []string
}

var (
	regMu    sync.RWMutex
	registry = map[string]registration{}
)

// Register adds a named strategy constructor taking the named parameters;
// New and Validate reject a spec with any other parameter before the
// constructor runs. Registering a duplicate or empty name panics: the
// registry is assembled at init time and a clash is a programming error.
func Register(name string, c Constructor, params ...string) {
	if name == "" || c == nil {
		panic("adversary: Register needs a name and a constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("adversary: duplicate strategy " + name)
	}
	registry[name] = registration{build: c, params: params}
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup returns the registration of the spec's strategy after checking
// the spec's parameter names against it.
func lookup(spec Spec) (registration, error) {
	regMu.RLock()
	r, ok := registry[spec.Name]
	regMu.RUnlock()
	if !ok {
		return registration{}, fmt.Errorf("unknown adversary %q (want %s)", spec.Name, strings.Join(Names(), "|"))
	}
	return r, spec.checkParams(r.params...)
}

// Validate checks that the spec names a registered strategy and only
// parameters that strategy takes, without constructing it: a randomized
// strategy's construction seeds a math/rand source.
func Validate(spec Spec) error {
	_, err := lookup(spec)
	return err
}

// New constructs a fresh instance of the named strategy. Every call returns
// independent state, so one spec can drive many channels.
func New(spec Spec) (Strategy, error) {
	r, err := lookup(spec)
	if err != nil {
		return nil, err
	}
	return r.build(spec)
}

// ParseSpec parses the CLI form "name", "name:k=v,k=v" or
// "name:seed=N,k=v" ("seed" is lifted out of Params into Spec.Seed).
func ParseSpec(text string) (Spec, error) {
	name, rest, _ := strings.Cut(strings.TrimSpace(text), ":")
	spec := Spec{Name: name}
	if rest == "" {
		return spec, nil
	}
	spec.Params = map[string]float64{}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return Spec{}, fmt.Errorf("adversary: malformed parameter %q in %q", kv, text)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("adversary: bad value for %q in %q: %v", k, text, err)
		}
		if k == "seed" {
			spec.Seed = int64(f)
			continue
		}
		spec.Params[k] = f
	}
	if len(spec.Params) == 0 {
		spec.Params = nil
	}
	return spec, nil
}

func init() {
	Register("zero", func(Spec) (Strategy, error) { return Zero{}, nil })
	Register("worst", func(Spec) (Strategy, error) { return MinUpTime{}, nil })
	Register("maxup", func(Spec) (Strategy, error) { return MaxUpTime{}, nil })
	Register("uniform", func(s Spec) (Strategy, error) { return Uniform{Rng: s.rng()}, nil })
	Register("gauss", func(s Spec) (Strategy, error) {
		return Gaussian{Rng: s.rng(), Sigma: s.param("sigma", 0)}, nil
	}, "sigma")
	Register("walk", func(s Spec) (Strategy, error) {
		return &RandomWalk{Rng: s.rng(), Step: s.param("step", 0)}, nil
	}, "step")
	Register("sine", func(s Spec) (Strategy, error) {
		return Sine{Amp: s.param("amp", 0), Period: s.param("period", 0), Phase: s.param("phase", 0)}, nil
	}, "amp", "period", "phase")
	Register("hold", func(s Spec) (Strategy, error) {
		return Hold{
			TargetRising:  s.param("tr", 0),
			TargetFalling: s.param("tf", 0),
			Gain:          s.param("gain", 1),
		}, nil
	}, "tr", "tf", "gain")
}

// Hold is the feedback adversary behind the bounded-SPF impossibility
// argument: it steers the previous-output-to-input offset T (the involution
// delay argument) toward a per-edge target with a proportional controller,
//
//	ηₙ = clamp(Gain · (target − Tₙ)) ,
//
// which can pin the storage loop to the unstable fixed point of the pulse
// recurrence and keep it oscillating indefinitely. With per-edge targets
// (TargetRising for rising output transitions, TargetFalling for falling)
// the held train's duty cycle is tunable — past constraint (C) this defeats
// the high-threshold buffer of the Fig. 5 circuit, which is exactly the
// schedule internal/attack searches for.
type Hold struct {
	TargetRising  float64
	TargetFalling float64
	Gain          float64 // 0 means 1
}

// Eta steers T toward the edge's target, clamped to the η interval.
func (h Hold) Eta(eta Eta, ctx Context) float64 {
	g := h.Gain
	if g == 0 {
		g = 1
	}
	t := h.TargetFalling
	if ctx.Rising {
		t = h.TargetRising
	}
	v := g * (t - ctx.T)
	if math.IsNaN(v) {
		return 0
	}
	return eta.Clamp(v)
}
