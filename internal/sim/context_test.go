package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestContextCancelAborts(t *testing.T) {
	c := oscillator(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(c, nil, Options{Horizon: 1e15, MaxEvents: 1 << 30, Context: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("not an AbortError: %v", err)
	}
	if ab.Class() != ClassCanceled {
		t.Fatalf("class %q, want %q", ab.Class(), ClassCanceled)
	}
	if ab.Stats.Delivered == 0 {
		t.Fatal("partial stats missing")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation abort took %v", elapsed)
	}
}

func TestContextAlreadyCanceled(t *testing.T) {
	c := oscillator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(c, nil, Options{Horizon: 100, Context: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestContextNilIsNoOp(t *testing.T) {
	c := oscillator(t)
	res, err := Run(c, nil, Options{Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("oscillator produced no events")
	}
}

func TestContextUncanceledRunsToHorizon(t *testing.T) {
	c := oscillator(t)
	ref, err := Run(c, nil, Options{Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, nil, Options{Horizon: 3, Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != ref.Events {
		t.Fatalf("context-carrying run delivered %d events, plain run %d", res.Events, ref.Events)
	}
	for name, sig := range ref.Signals {
		if got := res.Signals[name]; got.String() != sig.String() {
			t.Fatalf("signal %s differs: %v vs %v", name, got, sig)
		}
	}
}
