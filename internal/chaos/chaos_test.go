package chaos

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// reqTo builds a GET request to url with a replayable body.
func reqTo(t *testing.T, url, body string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func okServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"good", `{"seed":1,"rules":[{"fault":"latency","p":0.5}]}`, true},
		{"empty rules", `{"seed":1,"rules":[]}`, false},
		{"unknown fault", `{"seed":1,"rules":[{"fault":"gremlin"}]}`, false},
		{"bad probability", `{"seed":1,"rules":[{"fault":"reset","p":1.5}]}`, false},
		{"inverted window", `{"seed":1,"rules":[{"fault":"reset","start_ms":50,"end_ms":10}]}`, false},
		{"non-error status", `{"seed":1,"rules":[{"fault":"status","status":200}]}`, false},
		{"unknown field", `{"seed":1,"rules":[{"fault":"reset","typo":1}]}`, false},
	}
	for _, c := range cases {
		_, err := ParseSchedule(strings.NewReader(c.in))
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestDecisionsDeterministic(t *testing.T) {
	s := &Schedule{Seed: 42, Rules: []Rule{
		{Fault: FaultReset, P: 0.3},
		{Fault: FaultCorrupt, P: 0.5},
	}}
	var a, b []bool
	for occ := uint64(0); occ < 200; occ++ {
		for idx := range s.Rules {
			a = append(a, s.decide(idx, "POST|n1:1|/v1/jobs|abcd", occ))
			b = append(b, s.decide(idx, "POST|n1:1|/v1/jobs|abcd", occ))
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d not reproducible", i)
		}
	}
	// The draws should actually vary (not all-true or all-false).
	any, all := false, true
	for _, v := range a {
		any = any || v
		all = all && v
	}
	if !any || all {
		t.Fatalf("degenerate decision stream: any=%v all=%v", any, all)
	}
	// Different seeds disagree somewhere.
	s2 := &Schedule{Seed: 43, Rules: s.Rules}
	same := true
	for occ := uint64(0); occ < 200 && same; occ++ {
		same = s.decide(0, "k", occ) == s2.decide(0, "k", occ)
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical decision streams")
	}
}

func TestTransportDeterministicAcrossRuns(t *testing.T) {
	srv := okServer(t, `{"v":"0123456789abcdef"}`)
	run := func() (map[string]uint64, []string) {
		sched := &Schedule{Seed: 7, Rules: []Rule{
			{Fault: FaultCorrupt, P: 0.5},
			{Fault: FaultStatus, P: 0.3, Status: 502},
		}}
		tr := NewTransport(sched, nil)
		client := &http.Client{Transport: tr}
		var bodies []string
		for i := 0; i < 40; i++ {
			resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"job":1}`))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies = append(bodies, resp.Status+" "+string(b))
		}
		return tr.Counts(), bodies
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1[FaultCorrupt] == 0 || c1[FaultStatus] == 0 {
		t.Fatalf("expected both faults to fire, got %v", c1)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counts diverge for %s: %d vs %d", k, v, c2[k])
		}
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("exchange %d diverged:\n%s\nvs\n%s", i, b1[i], b2[i])
		}
	}
}

func TestTransportStatusFault(t *testing.T) {
	srv := okServer(t, `{}`)
	sched := &Schedule{Seed: 1, Rules: []Rule{{Fault: FaultStatus, P: 1, Status: 503, RetryAfter: 7}}}
	client := &http.Client{Transport: NewTransport(sched, nil)}
	resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
	body, _ := io.ReadAll(resp.Body)
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "chaos") {
		t.Fatalf("refusal body %q not a chaos error (%v)", body, err)
	}
}

func TestTransportRefusalFaults(t *testing.T) {
	srv := okServer(t, `{}`)
	for _, fault := range []string{FaultReset, FaultPartition, FaultStall} {
		sched := &Schedule{Seed: 1, Rules: []Rule{{Fault: fault, P: 1, LatencyMS: 1}}}
		client := &http.Client{Transport: NewTransport(sched, nil)}
		_, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
		if err == nil {
			t.Fatalf("%s: expected an injected error", fault)
		}
		var ce *Error
		if !errorsAs(err, &ce) {
			t.Fatalf("%s: error %v does not unwrap to *chaos.Error", fault, err)
		}
		if ce.Fault != fault {
			t.Fatalf("fault = %s, want %s", ce.Fault, fault)
		}
		if wantTimeout := fault == FaultStall; ce.Timeout() != wantTimeout {
			t.Fatalf("%s: Timeout() = %v, want %v", fault, ce.Timeout(), wantTimeout)
		}
	}
}

// errorsAs unwraps url.Error nesting from http.Client.
func errorsAs(err error, target **Error) bool {
	for err != nil {
		if ce, ok := err.(*Error); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestTransportTruncateFault(t *testing.T) {
	full := `{"payload":"` + strings.Repeat("x", 400) + `"}`
	srv := okServer(t, full)
	sched := &Schedule{Seed: 3, Rules: []Rule{{Fault: FaultTruncate, P: 1}}}
	client := &http.Client{Transport: NewTransport(sched, nil)}
	resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("read err = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(body) == 0 || len(body) >= len(full) {
		t.Fatalf("truncated body length %d not in (0,%d)", len(body), len(full))
	}
	if !strings.HasPrefix(full, string(body)) {
		t.Fatal("truncated body is not a prefix of the original")
	}
}

func TestTransportCorruptFault(t *testing.T) {
	full := `{"result":{"value":"abcdef0123456789","count":12345}}`
	srv := okServer(t, full)
	sched := &Schedule{Seed: 9, Rules: []Rule{{Fault: FaultCorrupt, P: 1, Flips: 4}}}
	client := &http.Client{Transport: NewTransport(sched, nil)}
	resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) == full {
		t.Fatal("body not corrupted")
	}
	if len(body) != len(full) {
		t.Fatalf("corruption changed length: %d vs %d", len(body), len(full))
	}
	// Mutation is alnum-preserving, so the JSON structure (braces, quotes,
	// colons) survives; full validity is NOT guaranteed — a flipped digit
	// can mint a leading-zero number, which is exactly the kind of lie
	// integrity hashing exists to catch.
	for i := range body {
		if byteClass(body[i]) != byteClass(full[i]) {
			t.Fatalf("byte %d changed class: %q -> %q", i, full[i], body[i])
		}
	}
}

// byteClass buckets a byte the way corrupt() must preserve it.
func byteClass(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return 0
	case b >= 'a' && b <= 'z':
		return 1
	case b >= 'A' && b <= 'Z':
		return 2
	}
	return 3
}

func TestCorruptPreservesClasses(t *testing.T) {
	orig := []byte(`{"k":"aZ9","n":107}`)
	got := corrupt(append([]byte(nil), orig...), 12345, 50)
	if bytes.Equal(orig, got) {
		t.Fatal("no mutation happened")
	}
	for i := range orig {
		if byteClass(orig[i]) != byteClass(got[i]) {
			t.Fatalf("byte %d changed class: %q -> %q", i, orig[i], got[i])
		}
	}
}

func TestBurstExtendsFiring(t *testing.T) {
	// With burst B, a fired occurrence must cover the next B occurrences too.
	sched := &Schedule{Seed: 11, Rules: []Rule{{Fault: FaultStatus, P: 0.2, Burst: 3}}}
	tr := NewTransport(sched, nil)
	const n = 300
	fired := make([]bool, n)
	for occ := 0; occ < n; occ++ {
		fired[occ] = tr.fired(0, "key", uint64(occ))
	}
	raw := make([]bool, n)
	for occ := 0; occ < n; occ++ {
		raw[occ] = sched.decide(0, "key", uint64(occ))
	}
	for occ := 0; occ < n; occ++ {
		want := false
		for back := 0; back <= 3 && back <= occ; back++ {
			want = want || raw[occ-back]
		}
		if fired[occ] != want {
			t.Fatalf("occ %d: fired=%v want=%v", occ, fired[occ], want)
		}
	}
}

func TestWindowGating(t *testing.T) {
	sched := &Schedule{Seed: 5, Rules: []Rule{{Fault: FaultPartition, StartMS: 100, EndMS: 200}}}
	srv := okServer(t, `{}`)
	tr := NewTransport(sched, nil)
	clock := tr.epoch
	tr.now = func() time.Time { return clock }
	client := &http.Client{Transport: tr}
	probe := func() error {
		resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	if err := probe(); err != nil {
		t.Fatalf("before window: %v", err)
	}
	clock = tr.epoch.Add(150 * time.Millisecond)
	if err := probe(); err == nil {
		t.Fatal("inside window: partition did not fire")
	}
	clock = tr.epoch.Add(250 * time.Millisecond)
	if err := probe(); err != nil {
		t.Fatalf("after window: %v", err)
	}
}

func TestNodeAndPathFilters(t *testing.T) {
	srv := okServer(t, `{}`)
	host := strings.TrimPrefix(srv.URL, "http://")
	sched := &Schedule{Seed: 5, Rules: []Rule{
		{Fault: FaultPartition, Nodes: []string{"other:1"}},
		{Fault: FaultPartition, Path: "/v1/other"},
	}}
	client := &http.Client{Transport: NewTransport(sched, nil)}
	resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("filters should exempt this exchange: %v", err)
	}
	resp.Body.Close()
	sched2 := &Schedule{Seed: 5, Rules: []Rule{{Fault: FaultPartition, Nodes: []string{host}, Path: "/v1/jobs"}}}
	client2 := &http.Client{Transport: NewTransport(sched2, nil)}
	if _, err := client2.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`)); err == nil {
		t.Fatal("matching node+path filter did not fire")
	}
}

func TestGenerateSchedulesValid(t *testing.T) {
	fleet := []string{"a:1", "b:2"}
	for k := 0; k < 6; k++ {
		s := Generate(1234, k, fleet)
		if err := s.Validate(); err != nil {
			t.Fatalf("Generate(1234,%d): %v", k, err)
		}
		hasCorrupt := false
		for _, r := range s.Rules {
			hasCorrupt = hasCorrupt || r.Fault == FaultCorrupt
			// Bounded blast radius: refusing faults must never cover the
			// whole fleet, or a shard can be left with no clean path.
			switch r.Fault {
			case FaultStatus, FaultReset, FaultStall:
				if len(r.Nodes) == 0 || len(r.Nodes) >= len(fleet) {
					t.Fatalf("Generate(1234,%d): refusing rule %s strikes %d of %d nodes; want a strict subset", k, r.Fault, len(r.Nodes), len(fleet))
				}
			}
		}
		if !hasCorrupt {
			t.Fatalf("Generate(1234,%d) has no corrupt rule", k)
		}
	}
	if Generate(1, 0, fleet).Seed == Generate(1, 1, fleet).Seed {
		t.Fatal("consecutive generated schedules share a seed")
	}
	// A single-node fleet has no subset to spare: refusing faults fall
	// back to fleet-wide but burst-free.
	for k := 0; k < 3; k++ {
		for _, r := range Generate(1234, k, []string{"solo:1"}).Rules {
			switch r.Fault {
			case FaultStatus, FaultReset, FaultStall:
				if r.Burst != 0 {
					t.Fatalf("Generate(…,%d, 1 peer): unfiltered refusing rule %s has burst %d", k, r.Fault, r.Burst)
				}
			}
		}
	}
}

func TestLoadScheduleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sched.json"
	want := Generate(99, 1, []string{"a:1", "b:2"})
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != want.Seed || len(got.Rules) != len(want.Rules) || got.Name != want.Name {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	if _, err := LoadSchedule(dir + "/missing.json"); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestDecisionStreamPinned pins injection decisions and corruption bytes
// to the values they had before the mixer moved onto internal/splitmix:
// a recorded chaos schedule must replay the same faults.
func TestDecisionStreamPinned(t *testing.T) {
	s := &Schedule{Seed: 11, Rules: []Rule{{Fault: "status", P: 0.5}, {Fault: "corrupt", P: 0.2}}}
	var fired []uint64
	for occ := uint64(0); occ < 16; occ++ {
		if s.decide(int(occ%2), "POST /v1/jobs", occ) {
			fired = append(fired, occ)
		}
	}
	if want := []uint64{8, 13, 15}; !reflect.DeepEqual(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	if got, want := s.mix(1, "k", 3), uint64(0x87dfb1834d70473c); got != want {
		t.Errorf("mix = %#x, want %#x", got, want)
	}
	body := corrupt([]byte(`{"netlist":"circuit x","horizon":50}`), s.mix(0, "k", 0), 3)
	if want := `{"nhtlist":"cirkvit x","horizon":50}`; string(body) != want {
		t.Errorf("corrupt = %s, want %s", body, want)
	}
}
