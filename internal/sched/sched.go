// Package sched holds the execution primitives shared by the batch
// campaign engine (internal/fault) and the simulation service
// (internal/server): a bounded long-running worker pool with graceful
// close, a cancellable bounded fan-out over a fixed work list, and an
// adaptive retry ladder.
//
// The package deliberately knows nothing about simulations: jobs are plain
// closures and the caller owns all result plumbing, so the primitives can
// back any "many independent units of work on N workers" workload.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"involution/internal/splitmix"
)

// ForEach runs fn(i) for i = 0 … n-1 on a pool of workers goroutines,
// dispatching indices in order. Cancellation of ctx stops dispatching new
// indices; in-flight calls run to completion (cooperative cancellation
// inside fn is the caller's concern). ForEach returns ctx.Err() — nil when
// every index was dispatched and finished.
//
// workers values below 1 are raised to 1. A nil ctx behaves like
// context.Background().
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}

// Verdict is an attempt's disposition in a retry ladder.
type Verdict int

// Attempt dispositions.
const (
	// Done ends the ladder: the attempt is terminal (success or a
	// non-retryable failure).
	Done Verdict = iota
	// Retry requests another attempt; it is granted while the ladder's
	// allowance lasts and the context is live.
	Retry
)

// Ladder is an adaptive retry policy: Run grants up to MaxRetries re-runs
// of an attempt that asks for them. Escalation of whatever resource the
// attempt exhausted belongs to the caller — the canonical shape is to
// escalate at the top of attempt when n > 0, so escalation happens exactly
// when a retry was actually granted.
type Ladder struct {
	// MaxRetries is the number of re-runs granted on top of the first
	// attempt. Zero disables retry.
	MaxRetries int
}

// Run invokes attempt(n) for n = 0, 1, … until the attempt reports Done,
// the retry allowance is exhausted, or ctx is canceled, and returns the
// number of attempts made. A nil ctx behaves like context.Background().
func (l Ladder) Run(ctx context.Context, attempt func(n int) Verdict) int {
	if ctx == nil {
		ctx = context.Background()
	}
	for n := 0; ; n++ {
		if attempt(n) == Done || n >= l.MaxRetries || ctx.Err() != nil {
			return n + 1
		}
	}
}

// Pool errors.
var (
	// ErrQueueFull reports that Submit found the bounded queue at capacity.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrPoolClosed reports a Submit after Close.
	ErrPoolClosed = errors.New("sched: pool closed")
)

// Pool is a long-running bounded-queue worker pool for services: jobs are
// submitted over time (not as one batch), the queue depth is bounded so
// overload surfaces as ErrQueueFull instead of unbounded memory growth,
// and Close drains queued and in-flight jobs before returning.
//
// A panicking job never kills its worker: the panic is swallowed after the
// job's own deferred handlers ran, so job-level recovery (recording the
// panic in a result) is the caller's concern and worker survival is the
// pool's.
type Pool struct {
	queue    chan func()
	wg       sync.WaitGroup
	mu       sync.Mutex
	started  bool // workers run; set by the first Submit
	closed   bool
	inflight atomic.Int64
	workers  int
}

// NewPool returns a pool of workers goroutines consuming a queue of at most
// depth waiting jobs. workers and depth values below 1 are raised to 1.
// The workers start on the first Submit, so a pool that is never used
// runs no goroutine.
func NewPool(workers, depth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &Pool{queue: make(chan func(), depth), workers: workers}
}

func (p *Pool) run(job func()) {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	defer func() { recover() }() // keep the worker alive; see Pool doc
	job()
}

// Submit enqueues a job without blocking. It returns ErrQueueFull when the
// queue is at capacity and ErrPoolClosed after Close.
func (p *Pool) Submit(job func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if !p.started {
		p.started = true
		for w := 0; w < p.workers; w++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for job := range p.queue {
					p.run(job)
				}
			}()
		}
	}
	select {
	case p.queue <- job:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops accepting jobs and waits until every queued and in-flight
// job has finished. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Depth returns the number of jobs waiting in the queue.
func (p *Pool) Depth() int { return len(p.queue) }

// InFlight returns the number of jobs currently executing.
func (p *Pool) InFlight() int { return int(p.inflight.Load()) }

// Backoff is a capped exponential backoff with deterministic jitter:
// attempt n waits Base·2ⁿ, clamped to Max, stretched by up to Jitter
// (a fraction of the wait) drawn from a seeded splitmix stream. Seeding
// makes retry timing reproducible in tests while still decorrelating
// concurrent clients that seed differently.
type Backoff struct {
	// Base is the first attempt's wait. Zero disables waiting entirely.
	Base time.Duration
	// Max clamps the exponential growth (0: no clamp).
	Max time.Duration
	// Jitter in [0,1] stretches each wait by up to that fraction.
	Jitter float64
	// Seed selects the jitter stream; the zero seed is a valid stream.
	Seed int64

	n     int
	state uint64
	once  sync.Once
}

// Next returns the wait before retry n (the n-th call) and advances the
// sequence.
func (b *Backoff) Next() time.Duration {
	b.once.Do(func() { b.state = uint64(b.Seed) ^ splitmix.Gamma })
	if b.Base <= 0 {
		return 0
	}
	d := b.Base << uint(min(b.n, 30))
	b.n++
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		frac := float64(splitmix.Next(&b.state)>>11) / float64(1<<53)
		d += time.Duration(float64(d) * b.Jitter * frac)
	}
	return d
}

// Reset rewinds the exponential sequence (the jitter stream keeps
// advancing, so post-reset waits are not replays).
func (b *Backoff) Reset() { b.n = 0 }

// Sleep waits Next() or until ctx is done, returning ctx.Err() in the
// latter case. A nil ctx behaves like context.Background().
func (b *Backoff) Sleep(ctx context.Context) error {
	d := b.Next()
	if d <= 0 {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
