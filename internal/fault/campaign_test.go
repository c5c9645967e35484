package fault

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"involution/internal/circuit"
	"involution/internal/obs"
	"involution/internal/signal"
	"involution/internal/sim"
)

func testCampaign(t *testing.T) (*Campaign, []Scenario) {
	t.Helper()
	c := pipeline(t)
	camp := &Campaign{
		Circuit: c,
		Inputs:  pipelineInputs(),
		Horizon: 20,
		Seed:    42,
	}
	models := []Model{
		SET{At: 2, Width: 0.5},
		SET{At: 100, Width: 0.5}, // beyond the horizon: masked
		SET{At: 10, Width: 0.5},
		StuckAt{V: signal.High, From: 3},
		StuckAt{V: signal.Low, From: 0},
		DelayPushout{DUp: 0.25, DDown: 0.25},
		Drop{From: 0, Count: 1},
		Dup{Gap: 0.2, Width: 0.1},
	}
	return camp, Grid(Sites(c), models)
}

func TestGridSkipsInapplicable(t *testing.T) {
	_, scs := testCampaign(t)
	// 5 overlay model instances × 3 sites + 3 wrapper instances × 2 channel
	// sites = 21 scenarios, consecutively numbered.
	if len(scs) != 21 {
		t.Fatalf("want 21 scenarios, got %d", len(scs))
	}
	for i, sc := range scs {
		if sc.ID != i {
			t.Fatalf("scenario %d has id %d", i, sc.ID)
		}
		if !sc.Model.AppliesTo(sc.Site) {
			t.Fatalf("scenario %d pairs %s with %s", i, sc.Model, sc.Site.Label())
		}
	}
}

func TestCampaignOutcomesAndReport(t *testing.T) {
	camp, scs := testCampaign(t)
	rep, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(scs) {
		t.Fatalf("rows %d, want %d", len(rep.Rows), len(scs))
	}
	total := 0
	for _, o := range Outcomes {
		total += rep.Counts[o.String()]
	}
	if total != len(scs) {
		t.Fatalf("counts sum to %d, want %d: %v", total, len(scs), rep.Counts)
	}
	if rep.Counts[Aborted.String()] != 0 {
		t.Fatalf("unexpected aborts: %v", rep.Counts)
	}
	if rep.Counts[Latched.String()] == 0 || rep.Counts[Propagated.String()] == 0 || rep.Counts[Masked.String()] == 0 {
		t.Fatalf("expected a mix of outcomes: %v", rep.Counts)
	}
	if !strings.Contains(rep.Format(), "fault campaign") {
		t.Fatalf("format: %q", rep.Format())
	}
}

func TestCampaignDeterministicForFixedSeed(t *testing.T) {
	render := func() (string, string) {
		camp, scs := testCampaign(t)
		rep, err := camp.Run(scs)
		if err != nil {
			t.Fatal(err)
		}
		var csv, jsonl bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return csv.String(), jsonl.String()
	}
	csv1, jsonl1 := render()
	csv2, jsonl2 := render()
	if csv1 != csv2 {
		t.Fatal("CSV report differs between identically-seeded campaigns")
	}
	if jsonl1 != jsonl2 {
		t.Fatal("JSONL report differs between identically-seeded campaigns")
	}
	if !strings.HasPrefix(csv1, "id,site,model,outcome,abort,attempts,scheduled,delivered,canceled\n") {
		t.Fatalf("csv header: %q", csv1[:60])
	}
}

// bombModel panics during instrumentation; the campaign must contain it.
type bombModel struct{}

func (bombModel) String() string      { return "bomb" }
func (bombModel) AppliesTo(Site) bool { return true }
func (bombModel) Instrument(*circuit.Circuit, Site, map[string]signal.Signal, *rand.Rand) (*circuit.Circuit, map[string]signal.Signal, error) {
	panic("instrumentation bomb")
}

// badSiteModel reports applicable but fails to instrument.
type badSiteModel struct{}

func (badSiteModel) String() string      { return "bad-site" }
func (badSiteModel) AppliesTo(Site) bool { return true }
func (badSiteModel) Instrument(c *circuit.Circuit, _ Site, in map[string]signal.Signal, rng *rand.Rand) (*circuit.Circuit, map[string]signal.Signal, error) {
	return SET{At: 1, Width: 1}.Instrument(c, Site{From: "nope", To: "nope", Pin: 9}, in, rng)
}

func TestCampaignContainsFailures(t *testing.T) {
	camp, _ := testCampaign(t)
	// Budget just above the baseline's own event count: the baseline
	// completes, every fault run (which adds control and glitch events)
	// exhausts it.
	base, err := sim.Run(camp.Circuit, camp.Inputs, sim.Options{Horizon: camp.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	camp.MaxEvents = base.Events + 1
	site := Site{From: "b1", To: "b2", Pin: 0, Channel: true}
	scs := []Scenario{
		{ID: 0, Site: site, Model: bombModel{}},
		{ID: 1, Site: site, Model: badSiteModel{}},
		{ID: 2, Site: site, Model: SET{At: 2, Width: 0.5}},
	}
	rep, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[Aborted.String()] != 3 {
		t.Fatalf("want 3 aborted, got %v", rep.Counts)
	}
	if rep.Rows[0].Abort != "panic" {
		t.Fatalf("row 0 abort %q, want panic", rep.Rows[0].Abort)
	}
	if rep.Rows[1].Abort != AbortInstrument {
		t.Fatalf("row 1 abort %q, want %q", rep.Rows[1].Abort, AbortInstrument)
	}
	if rep.Rows[2].Abort != "budget" {
		t.Fatalf("row 2 abort %q, want budget", rep.Rows[2].Abort)
	}
	if rep.Rows[2].Scheduled == 0 {
		t.Fatal("aborted row lacks partial stats")
	}
}

func TestCampaignDeadlinePerScenario(t *testing.T) {
	// A pathological pushout that keeps the run alive forever would stall
	// the campaign; the per-scenario deadline contains it. Use a ring via
	// stuck-at to keep this cheap: instead, just verify the deadline knob
	// reaches the simulator by setting it absurdly small on a real run.
	camp, _ := testCampaign(t)
	camp.Deadline = time.Nanosecond
	site := Site{From: "b1", To: "b2", Pin: 0, Channel: true}
	rep, err := camp.Run([]Scenario{{ID: 0, Site: site, Model: SET{At: 2, Width: 0.5}}})
	if err == nil {
		// The baseline run itself races the 1 ns deadline; when it survives,
		// the scenario row must report the deadline abort.
		if rep.Rows[0].Abort != "deadline" {
			t.Fatalf("abort %q, want deadline", rep.Rows[0].Abort)
		}
	}
}

func TestReportRegister(t *testing.T) {
	camp, scs := testCampaign(t)
	rep, err := camp.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep.Register(reg)
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "fault_scenarios_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("fault_scenarios_total not registered")
	}
}

// TestScenarioRandStream pins ScenarioRand to the stream of
// rand.New(rand.NewSource(seed)) across every draw kind, including a
// reseed before and after the first draw: the local and remote scenario
// paths depend on consuming exactly that stream.
func TestScenarioRandStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		got, want := ScenarioRand(seed), rand.New(rand.NewSource(seed))
		check := func(step string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d, %s: ScenarioRand gave %v, rand.NewSource %v", seed, step, g, w)
			}
		}
		for i := 0; i < 3; i++ {
			check("Float64", got.Float64(), want.Float64())
			check("Int63", got.Int63(), want.Int63())
			check("Uint64", got.Uint64(), want.Uint64())
			check("Intn", got.Intn(1000), want.Intn(1000))
			check("Perm", got.Perm(8), want.Perm(8))
		}
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		check("Int63 after Seed", got.Int63(), want.Int63())

		// A reseed before any draw must also take effect.
		got, want = ScenarioRand(seed), rand.New(rand.NewSource(seed+2))
		got.Seed(seed + 2)
		check("Float64 after early Seed", got.Float64(), want.Float64())
	}
}
