package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		counts := make([]atomic.Int64, n)
		if err := ForEach(context.Background(), workers, n, func(i int) {
			counts[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachNilContext(t *testing.T) {
	var ran atomic.Int64
	if err := ForEach(nil, 2, 5, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("ForEach(nil ctx): %v", err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran %d of 5", ran.Load())
	}
}

func TestForEachStopsDispatchingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 2, 1000, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight jobs finish; nothing new is dispatched after cancellation,
	// so far fewer than 1000 indices ran.
	if got := ran.Load(); got >= 1000 || got < 5 {
		t.Fatalf("ran %d indices after cancel", got)
	}
}

func TestLadderGrantsRetries(t *testing.T) {
	var calls []int
	attempts := Ladder{MaxRetries: 3}.Run(context.Background(), func(n int) Verdict {
		calls = append(calls, n)
		return Retry
	})
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4 (1 + 3 retries)", attempts)
	}
	for i, n := range calls {
		if n != i {
			t.Fatalf("attempt numbers %v not sequential", calls)
		}
	}
}

func TestLadderStopsOnDone(t *testing.T) {
	attempts := Ladder{MaxRetries: 5}.Run(nil, func(n int) Verdict {
		if n == 2 {
			return Done
		}
		return Retry
	})
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestLadderStopsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attempts := Ladder{MaxRetries: 5}.Run(ctx, func(int) Verdict { return Retry })
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled context grants no retries)", attempts)
	}
}

func TestPoolRunsSubmittedJobs(t *testing.T) {
	p := NewPool(3, 8)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if err := p.Submit(func() { defer wg.Done(); ran.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	p.Close()
	if ran.Load() != 8 {
		t.Fatalf("ran %d of 8 jobs", ran.Load())
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-block }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if err := p.Submit(func() {}); err != nil { // fills the queue slot
		t.Fatalf("Submit: %v", err)
	}
	if err := p.Submit(func() {}); err != ErrQueueFull {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
	close(block)
	p.Close()
}

func TestPoolCloseDrainsAndRejects(t *testing.T) {
	p := NewPool(2, 4)
	var ran atomic.Int64
	for i := 0; i < 4; i++ {
		if err := p.Submit(func() { time.Sleep(time.Millisecond); ran.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close() // waits for all four
	if ran.Load() != 4 {
		t.Fatalf("Close returned with %d of 4 jobs finished", ran.Load())
	}
	if err := p.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolSurvivesPanickingJob(t *testing.T) {
	p := NewPool(1, 2)
	recovered := make(chan any, 1)
	if err := p.Submit(func() {
		defer func() { recovered <- recover() }()
		panic("hostile job")
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r := <-recovered; r != "hostile job" {
		t.Fatalf("job-level recover saw %v", r)
	}
	// The worker must still be alive to run the next job.
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not survive the panicking job")
	}
	// A job without its own recovery must not kill the worker either.
	if err := p.Submit(func() { panic("unhandled") }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p.Close()
}

func TestBackoffSequence(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("Next() #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("Next() after Reset = %v, want 10ms", got)
	}
}

func TestBackoffJitterBoundedAndSeeded(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Jitter: 0.5, Seed: seed}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, a2, c := mk(1), mk(1), mk(2)
	base := []time.Duration{1, 2, 4, 8, 8, 8}
	differs := false
	for i := range a {
		lo := base[i] * time.Millisecond
		hi := lo + lo/2
		if a[i] < lo || a[i] > hi {
			t.Fatalf("jittered wait #%d = %v outside [%v,%v]", i, a[i], lo, hi)
		}
		if a[i] != a2[i] {
			t.Fatalf("same seed diverged at #%d: %v vs %v", i, a[i], a2[i])
		}
		if a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffZeroBaseAndSleepCancel(t *testing.T) {
	var b Backoff
	if got := b.Next(); got != 0 {
		t.Fatalf("zero Backoff Next() = %v, want 0", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Backoff{Base: time.Hour}
	if err := s.Sleep(ctx); err != context.Canceled {
		t.Fatalf("Sleep on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestBackoffJitterPinned pins the seeded jitter stream to its values
// before the mixer moved onto internal/splitmix.
func TestBackoffJitterPinned(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 3}
	for i, want := range []time.Duration{1372890, 2971002, 4888718, 9777058} {
		if got := b.Next(); got != want {
			t.Errorf("Next %d = %d, want %d", i, got, want)
		}
	}
}
