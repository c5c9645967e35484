package attack

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"involution/internal/journal"
	"involution/internal/obs"
)

func TestDimSnapLattice(t *testing.T) {
	d := Dim{Name: "tr", Min: -0.8, Max: 0.2, Step: 0.05}
	// Snapping must produce clean decimals however the value was reached:
	// keys and request hashes stop colliding otherwise.
	for _, tc := range []struct{ in, want float64 }{
		{-0.35, -0.35},
		{-0.150000000000000002, -0.15},
		{-0.149, -0.15},
		{-0.125, -0.1}, // round-half-away ties break deterministically
		{-5, -0.8},
		{5, 0.2},
	} {
		if got := d.Snap(tc.in); got != tc.want {
			t.Errorf("Snap(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := d.Levels(); got != 21 {
		t.Errorf("Levels() = %d, want 21", got)
	}
	frozen := Dim{Name: "k", Min: 3, Max: 3}
	if frozen.Levels() != 1 || frozen.Snap(99) != 3 {
		t.Errorf("frozen dim: Levels=%d Snap=%v", frozen.Levels(), frozen.Snap(99))
	}
}

func testSpace() Space {
	return Space{
		Budget: 0.5,
		Dims: []Dim{
			{Name: "a", Min: 0, Max: 0.4, Step: 0.1, Cost: 1},
			{Name: "b", Min: 0, Max: 0.4, Step: 0.1, Cost: 1},
			{Name: "c", Min: -1, Max: 1, Step: 0.5},
		},
	}
}

func TestSpaceBudgetAndKey(t *testing.T) {
	s := testSpace()
	if x := s.Snap([]float64{0.2, 0.2, 0}); !s.Feasible(x) {
		t.Errorf("cost-0.4 candidate rejected under budget 0.5")
	}
	if x := s.Snap([]float64{0.4, 0.4, 0}); s.Feasible(x) {
		t.Errorf("cost-0.8 candidate accepted under budget 0.5")
	}
	// Lattice-colliding proposals must share a key.
	k1 := s.Key(s.Snap([]float64{0.199, 0.2 + 1e-13, 0.3}))
	k2 := s.Key(s.Snap([]float64{0.2, 0.2, 0.26}))
	if k1 != k2 {
		t.Errorf("colliding proposals got different keys: %q vs %q", k1, k2)
	}
	if want := "a=0.2 b=0.2 c=0.5"; k1 != want {
		t.Errorf("key = %q, want %q", k1, want)
	}
}

func TestGridEnumeratesWholeLattice(t *testing.T) {
	s := testSpace()
	total := 5 * 5 * 5
	g := &Grid{}
	seen := map[string]bool{}
	for gen := 0; gen*25 < total; gen++ {
		for _, x := range g.Propose(s, gen, 25, nil) {
			seen[s.Key(s.Snap(x))] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("grid covered %d of %d lattice points", len(seen), total)
	}
	// Past the end the sweep wraps (dedup makes the repeats free).
	again := g.Propose(s, total/25, 25, nil)
	if key := s.Key(s.Snap(again[0])); !seen[key] {
		t.Errorf("wrapped proposal %q not from the lattice", key)
	}
}

// TestSearcherProposeIsPure locks the resume contract: Propose must not
// mutate searcher state, so calling it twice with identically derived rngs
// yields identical batches — before and after Observe.
func TestSearcherProposeIsPure(t *testing.T) {
	s := testSpace()
	for _, name := range []string{"grid", "anneal", "cem"} {
		sr, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		check := func(gen int) {
			a := sr.Propose(s, gen, 8, genRng(11, gen, 0))
			b := sr.Propose(s, gen, 8, genRng(11, gen, 0))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: Propose(gen=%d) not pure", name, gen)
			}
		}
		check(0)
		// Feed a synthetic generation and re-check.
		props := sr.Propose(s, 0, 8, genRng(11, 0, 0))
		scored := make([]Scored, len(props))
		for i, p := range props {
			x := s.Snap(p)
			scored[i] = Scored{X: x, Key: s.Key(x), Eval: Eval{Score: float64(i)}}
		}
		sr.Observe(s, 0, scored, genRng(11, 0, 1))
		check(1)
	}
}

// TestSearcherObserveReplay locks the other half of the resume contract:
// replaying the same Observe sequence into a fresh searcher reproduces the
// same proposals.
func TestSearcherObserveReplay(t *testing.T) {
	s := testSpace()
	for _, name := range []string{"anneal", "cem"} {
		mk := func() Searcher {
			sr, err := NewSearcher(name)
			if err != nil {
				t.Fatal(err)
			}
			return sr
		}
		a, b := mk(), mk()
		rng := rand.New(rand.NewSource(5))
		var gens [][]Scored
		for gen := 0; gen < 3; gen++ {
			props := a.Propose(s, gen, 6, genRng(3, gen, 0))
			scored := make([]Scored, len(props))
			for i, p := range props {
				x := s.Snap(p)
				scored[i] = Scored{X: x, Key: s.Key(x), Eval: Eval{Score: rng.Float64()}}
			}
			gens = append(gens, scored)
			a.Observe(s, gen, scored, genRng(3, gen, 1))
		}
		for gen, scored := range gens {
			b.Observe(s, gen, scored, genRng(3, gen, 1))
		}
		pa := a.Propose(s, 3, 6, genRng(3, 3, 0))
		pb := b.Propose(s, 3, 6, genRng(3, 3, 0))
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("%s: Observe replay diverged", name)
		}
	}
}

// TestLocalEvaluatorMemo: a repeated request is answered from the
// in-process server's RAM cache with the first run's exact bytes.
func TestLocalEvaluatorMemo(t *testing.T) {
	o, err := NewDefeatSPF(0)
	if err != nil {
		t.Fatal(err)
	}
	x := o.Space().Snap([]float64{0.1, 0.1, -0.2, -0.2, 1})
	req, err := o.Request(x)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLocal()
	r1, err := l.RunOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first run reported cached")
	}
	r2, err := l.RunOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.CacheTier != "mem" {
		t.Fatalf("repeat run: cached=%v tier=%q", r2.Cached, r2.CacheTier)
	}
	if string(r1.Result) != string(r2.Result) {
		t.Fatal("cached result differs from fresh result")
	}
}

// TestLocalRunsNoGoroutine: the in-process evaluator is a simd server that
// is never mounted, so building one and evaluating through it leaves no
// worker, limiter or recorder goroutine behind.
func TestLocalRunsNoGoroutine(t *testing.T) {
	o, err := NewDefeatSPF(0)
	if err != nil {
		t.Fatal(err)
	}
	req, err := o.Request(o.Space().Snap([]float64{0.1, 0.1, -0.2, -0.2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		if _, err := NewLocal().RunOne(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d → %d", before, after)
	}
}

// TestDefeatSPFSearch is the package-level acceptance test: a small seeded
// annealing search defeats the Fig. 5 SPF circuit with an η schedule
// violating constraint (C), deterministically.
func TestDefeatSPFSearch(t *testing.T) {
	run := func() *Result {
		o, err := NewDefeatSPF(0)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewSearcher("anneal")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Config{
			Objective:   o,
			Searcher:    sr,
			Eval:        NewLocal(),
			Generations: 6,
			Batch:       16,
			Seed:        7,
			Workers:     8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Breaking == 0 || !res.Best.Eval.Breaking {
		t.Fatalf("no breaking attack found: %+v", res)
	}
	o, _ := NewDefeatSPF(0)
	c := o.Constraint(res.Best.X)
	if !c.Violated {
		t.Fatalf("breaking attack %q does not violate (C): %v — Theorem 9 would be wrong", res.Best.Key, c)
	}
	if res.FirstBreakEval == 0 {
		t.Fatal("FirstBreakEval not recorded")
	}
	// Determinism: the whole result — scores, ordering, counters — repeats.
	res2 := run()
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(res2)
	if string(a) != string(b) {
		t.Fatalf("same seed produced different results:\n%s\n%s", a, b)
	}
}

// TestCampaignJournalResume kills a campaign after 3 durable generations
// (by just stopping it) and resumes: the final result must equal the
// uninterrupted run's, field for field.
func TestCampaignJournalResume(t *testing.T) {
	dir := t.TempDir()
	hdr := JournalHeader{Objective: "defeat-spf", Searcher: "anneal", Seed: 7, Batch: 16}
	newCfg := func(j *Journal, gens int) Config {
		o, err := NewDefeatSPF(0)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewSearcher("anneal")
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Objective: o, Searcher: sr, Eval: NewLocal(),
			Generations: gens, Batch: 16, Seed: 7, Workers: 8, Journal: j,
		}
	}

	// Uninterrupted reference run.
	jA, err := OpenJournal(filepath.Join(dir, "a.journal"), false, hdr)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(context.Background(), newCfg(jA, 6))
	if err != nil {
		t.Fatal(err)
	}
	jA.Close()

	// Interrupted run: 3 generations, then the process "dies".
	pathB := filepath.Join(dir, "b.journal")
	jB, err := OpenJournal(pathB, false, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), newCfg(jB, 3)); err != nil {
		t.Fatal(err)
	}
	jB.Close()

	// Resume in a fresh process: fresh searcher, fresh evaluator.
	jR, err := OpenJournal(pathB, true, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer jR.Close()
	if jR.Len() != 3 {
		t.Fatalf("journal recovered %d generations, want 3", jR.Len())
	}
	resumed, err := Run(context.Background(), newCfg(jR, 6))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != 3 {
		t.Fatalf("Replayed = %d, want 3", resumed.Replayed)
	}
	resumed.Replayed = full.Replayed // the only legitimately different field
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\n%s", a, b)
	}
}

func TestJournalTornTailAndMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.journal")
	hdr := JournalHeader{Objective: "defeat-spf", Searcher: "cem", Seed: 1, Batch: 4}
	j, err := OpenJournal(path, false, hdr)
	if err != nil {
		t.Fatal(err)
	}
	e0 := GenEntry{Gen: 0, Scored: []Scored{{X: []float64{1}, Key: "a=1", Eval: Eval{Score: 2}}}}
	e1 := GenEntry{Gen: 1, Scored: []Scored{{X: []float64{2}, Key: "a=2", Eval: Eval{Score: 3, Breaking: true}}}}
	if err := j.Append(e0); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(e1); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Torn tail: a crash mid-append leaves a partial row past the index.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"gen":2,"scored":[{"x":[3],`)
	f.Close()

	r, err := OpenJournal(path, true, hdr)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Entries()
	if len(got) != 2 || !reflect.DeepEqual(got[0], e0) || !reflect.DeepEqual(got[1], e1) {
		t.Fatalf("recovered %+v", got)
	}
	// Appends continue cleanly after truncation.
	if err := r.Append(GenEntry{Gen: 2}); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// A journal from a different search refuses to resume.
	other := hdr
	other.Seed = 99
	if _, err := OpenJournal(path, true, other); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("seed-mismatched resume: err = %v, want journal.ErrMismatch", err)
	}
}

// TestJournalCorruptionRejected: damage inside the durable prefix is a
// typed error that leaves the file alone, never a silent truncation that
// deletes the later durable generations.
func TestJournalCorruptionRejected(t *testing.T) {
	hdr := JournalHeader{Objective: "defeat-spf", Searcher: "cem", Seed: 1, Batch: 4}
	write := func(t *testing.T) (string, []byte) {
		path := filepath.Join(t.TempDir(), "gen.journal")
		j, err := OpenJournal(path, false, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 3; gen++ {
			e := GenEntry{Gen: gen, Scored: []Scored{{X: []float64{float64(gen)}, Key: fmt.Sprintf("a=%d", gen)}}}
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	t.Run("corrupt row", func(t *testing.T) {
		path, data := write(t)
		bad := bytes.Replace(data, []byte(`{"gen":1,`), []byte(`{"gen":1;`), 1)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(path, true, hdr); !errors.Is(err, journal.ErrMalformed) {
			t.Fatalf("err = %v, want journal.ErrMalformed", err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
			t.Fatalf("rejected resume rewrote the journal: %d bytes, was %d", len(after), len(bad))
		}
	})
	t.Run("shorter than index", func(t *testing.T) {
		path, data := write(t)
		if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(path, true, hdr); !errors.Is(err, journal.ErrTruncated) {
			t.Fatalf("err = %v, want journal.ErrTruncated", err)
		}
	})
}

// TestJournalResumesV1File resumes testdata/v1/gen.journal, written by the
// pre-internal/journal implementation (its index has no trailing newline).
func TestJournalResumesV1File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.journal")
	for _, ext := range []string{"", ".idx"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", "gen.journal"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+ext, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hdr := JournalHeader{Objective: "defeat-spf", Searcher: "cem", Seed: 1, Batch: 4}
	j, err := OpenJournal(path, true, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := []GenEntry{
		{Gen: 0, Scored: []Scored{{X: []float64{1}, Key: "a=1", Eval: Eval{Score: 2}}}},
		{Gen: 1, Scored: []Scored{{X: []float64{2}, Key: "a=2", Eval: Eval{Score: 3, Breaking: true}}}},
	}
	if got := j.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
}

// TestCampaignMetricsAndProgress exercises the obs and progress-file
// surfaces of a campaign.
func TestCampaignMetricsAndProgress(t *testing.T) {
	dir := t.TempDir()
	progress := filepath.Join(dir, "attack.json")
	o, err := NewDefeatSPF(0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sr, _ := NewSearcher("grid")
	res, err := Run(context.Background(), Config{
		Objective: o, Searcher: sr, Eval: NewLocal(),
		Generations: 2, Batch: 8, Seed: 1, Workers: 4,
		Metrics: m, Progress: progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Evals.Value(); got != int64(res.Evals) {
		t.Errorf("attack_evals_total = %d, want %d", got, res.Evals)
	}
	if got := m.Generations.Value(); got != 2 {
		t.Errorf("attack_generations_total = %d, want 2", got)
	}
	raw, err := os.ReadFile(progress)
	if err != nil {
		t.Fatal(err)
	}
	var p Progress
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("progress file unparsable: %v", err)
	}
	if !p.Done || p.Gen != 2 || p.Objective != "defeat-spf" || p.Evals != res.Evals {
		t.Errorf("progress = %+v", p)
	}
}

// TestGenRngPinned pins the per-generation streams to their values before
// the mixer moved onto internal/splitmix: a journaled campaign resumes
// only if every generation re-derives the same proposals.
func TestGenRngPinned(t *testing.T) {
	for _, c := range []struct {
		seed        int64
		gen, stream int
		want        [2]int64
	}{
		{7, 0, 0, [2]int64{788183878149788701, 4959575618875171841}},
		{7, 0, 1, [2]int64{5977064273612923576, 2743724509798208426}},
		{7, 3, 0, [2]int64{353180778262277498, 7329952187405203474}},
		{-2, 5, 1, [2]int64{8179503941398704506, 3428424140511369407}},
	} {
		r := genRng(c.seed, c.gen, c.stream)
		if got := [2]int64{r.Int63(), r.Int63()}; got != c.want {
			t.Errorf("genRng(%d, %d, %d) = %v, want %v", c.seed, c.gen, c.stream, got, c.want)
		}
	}
}

// TestRequestBodiesPinned pins the rendered defeat-spf and max-stabilize
// request bodies byte for byte: the body is the content key, so a drift in
// the shared SPF renderer would orphan every lake entry and cached result.
func TestRequestBodiesPinned(t *testing.T) {
	d, err := NewDefeatSPF(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaxStabilize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		o    Objective
		x    []float64
		want string
	}{
		{d, []float64{0.1, 0.1, -0.2, -0.2, 1}, "9574a57fb78c6661734c53f6034b13e1571464519c6f02dcc20c782bd523806e"},
		{d, []float64{0.58, 0.14, -0.25, -0.1, 1}, "f55749b6db26d80de55cd6f8002fd651ab9a668dda192cd6d005251424c1108d"},
		{m, []float64{1.1, -0.3, 0.2}, "1d42202c260026e80e5ccf560a88febd5f5373b1118ea7a46e9a50b0506901de"},
	} {
		req, err := c.o.Request(c.o.Space().Snap(c.x))
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := req.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != c.want {
			t.Errorf("%s %v: body sha256 %s, want %s\n%s", c.o.Name(), c.x, got, c.want, body)
		}
	}
}
