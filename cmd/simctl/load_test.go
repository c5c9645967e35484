package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"involution/internal/admission"
	"involution/internal/server"
	"involution/internal/sim"
)

func TestRunUsageErrors(t *testing.T) {
	if code, out := runCLI(t, "load", "-addr", "http://127.0.0.1:1"); code != sim.ExitUsage {
		t.Fatalf("missing -rate/-x: exit %d, want %d\n%s", code, sim.ExitUsage, out)
	}
}

func TestFloodShedsAndPasses(t *testing.T) {
	s := server.New(server.Config{
		Workers: 1, QueueDepth: 2, CacheBytes: 1 << 20,
		Admission: admission.New(admission.Config{
			Default: admission.Limits{RPS: 20, Burst: 5},
		}),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(5 * time.Second)
	}()

	// A 150/s flood against a 20 rps quota must shed with 429s while
	// losing nothing it accepted.
	code, out := runCLI(t, "load",
		"-addr", ts.URL,
		"-rate", "150",
		"-duration", "400ms",
		"-keyspace", "8",
		"-seed", "7",
		"-want-sheds",
		"-max-lost", "0",
	)
	if code != sim.ExitOK {
		t.Fatalf("flood run exit %d, want %d\n%s", code, sim.ExitOK, out)
	}
}

func TestAssertionFailureExitsAbort(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueDepth: 64, CacheBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(5 * time.Second)
	}()

	// A gentle trickle sheds nothing; -want-sheds must then fail the run.
	code, out := runCLI(t, "load",
		"-addr", ts.URL,
		"-rate", "5",
		"-duration", "300ms",
		"-want-sheds",
	)
	if code != sim.ExitAbort {
		t.Fatalf("unmet -want-sheds exit %d, want %d\n%s", code, sim.ExitAbort, out)
	}
}
