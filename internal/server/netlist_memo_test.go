package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// noisyNetlist is a 3-stage inverter chain whose channels carry a seeded
// random adversary: every run needs fresh per-edge adversary state, so a
// shared circuit that leaked state between runs would change results.
const noisyNetlist = `circuit noisy
input i
output o
gate a NOT init=1
gate b NOT init=0
gate c NOT init=1
channel i a 0 zero
channel a b 0 exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=uniform seed=3
channel b c 0 exp tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=uniform seed=4
channel c o 0 zero
`

// noisyStim is job k's stimulus: a short pulse train whose widths straddle
// the channels' cancellation bound.
func noisyStim(k int) map[string]string {
	return map[string]string{"i": fmt.Sprintf("0 r@1 f@%g r@4 f@%g", 1.2+0.1*float64(k), 4.5+0.05*float64(k))}
}

// TestNetlistMemoConcurrentJobs runs one memoized circuit through many
// concurrent jobs (run under -race) and checks every ResultHash against a
// fresh compile of the same request on a server that never saw the
// netlist before.
func TestNetlistMemoConcurrentJobs(t *testing.T) {
	const jobs = 16
	s := testServer(t)
	h := s.Handler()
	// Warm the memo so every concurrent job below shares one circuit.
	submitWait(t, h, Request{Netlist: noisyNetlist, Inputs: noisyStim(jobs), Horizon: 40})

	resps := make([]*httptest.ResponseRecorder, jobs)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resps[k] = doJSONConcurrent(h, "POST", "/v1/jobs?wait=1",
				Request{Netlist: noisyNetlist, Inputs: noisyStim(k), Horizon: 40})
		}(k)
	}
	wg.Wait()
	if hits := s.met.netlistHits.Value(); hits != jobs {
		t.Fatalf("netlist memo hits = %d, want %d (one per concurrent job)", hits, jobs)
	}

	for k, w := range resps {
		rec := decodeRecord(t, w)
		if rec.Status != StatusCompleted || rec.Cached {
			t.Fatalf("job %d: status %s cached %v (%s)", k, rec.Status, rec.Cached, rec.Error)
		}
		fresh := New(Config{Workers: 1})
		want := submitWait(t, fresh.Handler(), Request{Netlist: noisyNetlist, Inputs: noisyStim(k), Horizon: 40})
		fresh.Drain(0)
		if fresh.met.netlistHits.Value() != 0 {
			t.Fatal("reference server reused a circuit")
		}
		if rec.Hash != want.Hash || rec.ResultHash != want.ResultHash {
			t.Fatalf("job %d: shared circuit gave hash %.12s result %.12s, fresh compile %.12s / %.12s",
				k, rec.Hash, rec.ResultHash, want.Hash, want.ResultHash)
		}
	}
}

// TestNetlistMemoSkipsBadNetlist checks that a netlist which fails to
// compile is never memoized: the same bad netlist is refused both times,
// and each refusal is a miss.
func TestNetlistMemoSkipsBadNetlist(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// Parses, but fails Build: gate g has no driver on its input pin.
	bad := "circuit broken\ninput i\noutput o\ngate g BUF\nchannel g o 0 zero\n"
	for i := 0; i < 2; i++ {
		w := doJSON(t, h, "POST", "/v1/jobs?wait=1", Request{Netlist: bad, Horizon: 10})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("submit %d of a bad netlist: status %d, want 400: %s", i, w.Code, w.Body.String())
		}
	}
	if n := s.netlists.len(); n != 0 {
		t.Fatalf("netlist memo holds %d entries after two bad submits, want 0", n)
	}
	if hits, misses := s.met.netlistHits.Value(), s.met.netlistMisses.Value(); hits != 0 || misses != 2 {
		t.Fatalf("memo hits/misses = %d/%d, want 0/2", hits, misses)
	}
}

// TestNetlistMemoSharesSpellings submits one netlist under two spellings
// (whitespace, comments, option order and case): both share a canonical
// request hash and one built circuit, and the second compile is a hit.
func TestNetlistMemoSharesSpellings(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	stim := map[string]string{"i": "0 r@1 f@2"}
	first := submitWait(t, h, Request{Netlist: noisyNetlist, Inputs: stim, Horizon: 40})
	messy := `# same circuit, different spelling
circuit   noisy
input i
output o

gate a not init=1
gate b NOT
gate c INV init=1
channel i a 0 ZERO
channel a b 0 exp adversary=uniform seed=3 eta-=0.03 eta+=0.04 vth=0.6 tp=0.5 tau=1.0
channel b c 0 exp seed=4 tau=1 tp=0.5 vth=0.6 eta+=0.04 eta-=0.03 adversary=uniform
channel  c  o  0  zero
`
	second := submitWait(t, h, Request{Netlist: messy, Inputs: stim, Horizon: 40})
	if first.Hash != second.Hash {
		t.Fatalf("spellings hash differently: %.12s vs %.12s", first.Hash, second.Hash)
	}
	if !second.Cached || first.ResultHash != second.ResultHash {
		t.Fatalf("second spelling: cached %v, result %.12s vs %.12s", second.Cached, second.ResultHash, first.ResultHash)
	}
	if hits, misses := s.met.netlistHits.Value(), s.met.netlistMisses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("memo hits/misses = %d/%d, want 1/1", hits, misses)
	}
	a, _ := s.netlists.get(noisyNetlist)
	b, _ := s.netlists.get(messy)
	if a == nil || a != b {
		t.Fatalf("spellings map to different memo entries (%p, %p)", a, b)
	}
}
