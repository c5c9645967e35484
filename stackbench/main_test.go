package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// invoke runs the benchmark in a temporary root and parses its last line.
func invoke(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(t.TempDir(), args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return code, res, errOut.String()
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny length, with
// and without tracing, and checks that every metric BENCHMARK.json names
// is emitted with its unit and that the outputs checked out.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, res, stderr := invoke(t, "--workload", w.Name, "--seed", "1", "--seconds", "0.3", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, res, stderr)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want the %d BENCHMARK.json names", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptDigestFails checks that a wrong pinned digest fails the run.
func TestCorruptDigestFails(t *testing.T) {
	saved := pinned["kernel"]
	pinned["kernel"] = strings.Repeat("0", 64)
	defer func() { pinned["kernel"] = saved }()
	code, res, _ := invoke(t, "--workload", "kernel", "--seed", "1", "--seconds", "0.3", "--trace", "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest passed: exit %d, result %+v", code, res)
	}
}
