package dist

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gvmr/internal/resilience"
	"gvmr/internal/volume/dataset"
)

// Overload-policy battery: circuit-breaker lifecycle under a wedged
// worker (deterministic via a fake breaker clock), retry-budget
// exhaustion failing fast, and the caller-cancel / deadline-abort
// classifications that must never count as node deaths. The rendering
// oracle everywhere is bit-identity against a direct render. Runs under
// -race in CI.

// TestCoordinatorDoesNotMarkDownOnCallerCancel: the caller abandoning a
// request tells us nothing about the worker's health. The node must not
// be marked down and its breaker must record no failure — otherwise a
// storm of impatient clients would open every breaker in the fleet.
func TestCoordinatorDoesNotMarkDownOnCallerCancel(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // client hung up
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)

	coord := newTestCoordinator(t, []string{srv.URL}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := coord.post(ctx, time.Minute, srv.URL, MapPath, nil, "application/json")
	if err == nil {
		t.Fatal("cancelled post succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if got := coord.Stats().NodeDowns; got != 0 {
		t.Errorf("caller cancel marked %d nodes down", got)
	}
	if st := coord.BreakerState(srv.URL); st != resilience.StateClosed {
		t.Errorf("caller cancel moved breaker to %v", st)
	}
}

// TestCoordinatorDeadlineAbortNot504edNodeDown: a worker answering 504
// obeyed the deadline we set — that is the protocol working, not a
// fault. No node-down, no breaker failure, and the error wraps
// ErrDeadline so the render loop stops retrying doomed work.
func TestCoordinatorDeadlineAbortNotNodeDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "deadline expired", http.StatusGatewayTimeout)
	}))
	defer srv.Close()

	coord := newTestCoordinator(t, []string{srv.URL}, nil)
	_, _, err := coord.post(context.Background(), time.Second, srv.URL, MapPath, nil, "application/json")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("504 error %v does not wrap ErrDeadline", err)
	}
	if got := coord.Stats().NodeDowns; got != 0 {
		t.Errorf("504 marked %d nodes down", got)
	}
	if st := coord.BreakerState(srv.URL); st != resilience.StateClosed {
		t.Errorf("504 moved breaker to %v", st)
	}
	if snap := coord.Resilience().Snapshot(); snap.DeadlineAborts < 1 {
		t.Errorf("deadline abort not counted: %+v", snap)
	}
}

// tripOpen fails b until it opens: the breaker's thresholds are fixed, so
// tests reach the open state through its own failure ratio.
func tripOpen(b *resilience.Breaker) {
	for b.State() != resilience.StateOpen {
		b.Failure()
	}
}

// TestChaosBreakerLifecycle is the deterministic soak: a wedged worker
// (hard 500s) trips its breaker open; while open it costs nothing — no
// retries, no budget tokens, placement routes around it; once the open
// period passes on the fake clock half-open probes readmit it and,
// healthy again, the breaker closes. Every surviving render is
// bit-identical to a direct render.
func TestChaosBreakerLifecycle(t *testing.T) {
	const seed = 20260808
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos seed %d", seed)

	clk := newChaosClock()
	var wedged atomic.Bool
	wedged.Store(true)
	addrs := startWorkers(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if wedged.Load() {
				http.Error(w, "wedged", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) {
		c.Breaker = resilience.BreakerConfig{Now: clk.Now}
	})
	render := func() {
		t.Helper()
		deg := float64(rng.Intn(360))
		job := testJob(t, dataset.Skull, 32, 64, 6, deg, false)
		if got, want := renderAngle(t, coord, deg), directDigest(t, job); got != want {
			t.Fatalf("frame at %v°: digest %s != direct %s", deg, got, want)
		}
	}

	// Phase 1 — wedged: renders survive on retries until five failed
	// exchanges land in the breaker window and it opens.
	opened := false
	for i := 0; i < 20 && !opened; i++ {
		render()
		opened = coord.BreakerState(addrs[0]) == resilience.StateOpen
	}
	if !opened {
		t.Fatal("breaker never opened on a hard-failing worker")
	}
	if snap := coord.Resilience().Snapshot(); snap.BreakerOpens < 1 {
		t.Fatalf("open not counted: %+v", snap)
	}

	// Phase 2 — open: the wedged worker is not placeable, so renders cost
	// zero retries (and therefore zero retry-budget tokens).
	retriesBefore := coord.Stats().Retries
	for i := 0; i < 3; i++ {
		render()
	}
	if d := coord.Stats().Retries - retriesBefore; d != 0 {
		t.Errorf("open breaker still cost %d retries", d)
	}

	// Phase 3 — recovery: heal the worker, advance past the 5 s open
	// period; one probe at a time readmits it and two healthy probes
	// close the breaker.
	wedged.Store(false)
	clk.Advance(6 * time.Second)
	if st := coord.BreakerState(addrs[0]); st != resilience.StateHalfOpen {
		t.Fatalf("after the open period breaker is %v, want half-open", st)
	}
	closed := false
	for i := 0; i < 10 && !closed; i++ {
		render()
		closed = coord.BreakerState(addrs[0]) == resilience.StateClosed
	}
	if !closed {
		t.Errorf("after healthy probes breaker is %v, want closed", coord.BreakerState(addrs[0]))
	}
	snap := coord.Resilience().Snapshot()
	if snap.HalfOpenProbes < 2 {
		t.Errorf("%d half-open probes counted, want 2: %+v", snap.HalfOpenProbes, snap)
	}
}

// TestRetryBudgetExhaustionFailsFast: with every worker hard-failing, the
// retry budget is the backstop — the render must fail quickly with
// ErrRetryBudget instead of grinding through MaxAttempts everywhere.
func TestRetryBudgetExhaustionFailsFast(t *testing.T) {
	// Eighteen workers against the 16-token budget: excluding every worker
	// takes one brick 17 re-placements, so the bucket always empties
	// first. With 17 workers or fewer a brick could exclude every worker
	// before the bucket empties.
	const workers, budget = 18, 16
	addrs := startWorkers(t, workers, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		})
	})
	coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) {
		c.MaxAttempts = 100
	})
	job := testJob(t, dataset.Skull, 24, 48, 2, 0, false)
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.Render(context.Background(), job)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("error %v does not wrap ErrRetryBudget", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("budget-capped render hung")
	}
	snap := coord.Resilience().Snapshot()
	if snap.RetryBudgetExhausted < 1 {
		t.Errorf("exhaustion not counted: %+v", snap)
	}
	if retries := coord.Stats().Retries; retries > budget {
		t.Errorf("%d retries spent against a budget of %d", retries, budget)
	}
}

// TestShedWorkerPassedOverForOneSecond: a static worker whose admission
// gate answers 429 is marked busy by that answer alone — static members
// never heartbeat. The frame it shed completes on the other worker with
// one retry; renders in the next second place nothing on it and retry
// nothing; after the second its ring share returns. The breaker stays
// closed and no node is counted down, and a fleet that is busy
// throughout still places. Every frame is bit-identical to a direct
// render.
func TestShedWorkerPassedOverForOneSecond(t *testing.T) {
	clk := newChaosClock()
	var full atomic.Bool
	full.Store(true)
	addrs, counts := countingWorkers(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if full.Load() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "overloaded", http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	coord := newTestCoordinator(t, addrs, func(c *CoordinatorConfig) {
		c.Breaker = resilience.BreakerConfig{Now: clk.Now}
	})
	render := func(deg float64, wantMaps0, wantRetries int64) {
		t.Helper()
		job := testJob(t, dataset.Skull, 32, 64, 6, deg, false)
		if got, want := renderAngle(t, coord, deg), directDigest(t, job); got != want {
			t.Fatalf("frame at %v°: digest %s != direct %s", deg, got, want)
		}
		if got := counts[0].Load(); got != wantMaps0 {
			t.Errorf("frame at %v°: busy worker saw %d map requests in all, want %d", deg, got, wantMaps0)
		}
		if got := coord.Stats().Retries; got != wantRetries {
			t.Errorf("frame at %v°: %d retries in all, want %d", deg, got, wantRetries)
		}
	}

	render(10, 1, 1) // shed once, re-placed on the other worker
	render(20, 1, 1) // same instant: passed over, nothing to retry
	clk.Advance(time.Second - time.Nanosecond)
	render(30, 1, 1)
	full.Store(false)
	clk.Advance(time.Nanosecond)
	render(40, 2, 1) // the mark lapsed: its share returns

	if st := coord.BreakerState(addrs[0]); st != resilience.StateClosed {
		t.Errorf("429s moved the breaker to %v", st)
	}
	if got := coord.Stats().NodeDowns; got != 0 {
		t.Errorf("429s counted %d node downs", got)
	}

	// Every node busy: the last-resort walk still places.
	for _, a := range addrs {
		coord.breaker(a).Busy()
	}
	render(50, 3, 1)
}
