package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic clock the breaker tests drive.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBreakerLifecycle drives closed→open→half-open→closed entirely on
// the fake clock: the full lifecycle is a pure function of outcomes and
// time, which is what makes the chaos suite deterministic.
func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	var m Metrics
	b := NewBreaker(BreakerConfig{Now: clk.Now, Metrics: &m})
	if got := b.State(); got != StateClosed {
		t.Fatalf("new breaker state = %v, want closed", got)
	}

	// Below the minimum volume the ratio can never trip, even at 100%
	// failure.
	for i := 0; i < breakerMinRequests-1; i++ {
		b.Failure()
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after %d failures = %v, want closed", breakerMinRequests-1, got)
	}
	if !b.Placeable() {
		t.Fatal("closed breaker must be placeable")
	}

	// The next outcome reaches the minimum at 100% failure: open.
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after %d/%[1]d failures = %v, want open", breakerMinRequests, got)
	}
	if b.Placeable() || b.Admit() {
		t.Fatal("open breaker must refuse placement and admission")
	}
	if got := m.Snapshot().BreakerOpens; got != 1 {
		t.Fatalf("breaker_opens = %d, want 1", got)
	}

	// Stragglers from before the open change nothing.
	b.Success()
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after stragglers = %v, want open", got)
	}

	// Not yet: one nanosecond before breakerOpenFor elapses it is still
	// open.
	clk.Advance(breakerOpenFor - time.Nanosecond)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state before breakerOpenFor elapsed = %v, want open", got)
	}
	clk.Advance(time.Nanosecond)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after breakerOpenFor = %v, want half-open", got)
	}

	// One probe slot: the first Admit takes it, the second is refused.
	if !b.Admit() {
		t.Fatal("half-open breaker must admit the first probe")
	}
	if b.Admit() || b.Placeable() {
		t.Fatal("half-open breaker must refuse a second concurrent probe")
	}
	if got := m.Snapshot().HalfOpenProbes; got != 1 {
		t.Fatalf("half_open_probes = %d, want 1", got)
	}

	// First probe succeeds: still half-open (two successes close), slot
	// free.
	b.Success()
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want half-open", got)
	}
	if !b.Admit() {
		t.Fatal("half-open breaker must admit another probe after success")
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after %d probe successes = %v, want closed", breakerCloseAfter, got)
	}

	// The close reset the window: one failure cannot re-trip it.
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after close + 1 failure = %v, want closed", got)
	}
}

// TestBreakerProbeFailureReopens: any half-open probe failure re-opens
// the breaker for a full breakerOpenFor.
func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	var m Metrics
	b := NewBreaker(BreakerConfig{Now: clk.Now, Metrics: &m})
	for i := 0; i < breakerMinRequests; i++ {
		b.Failure()
	}
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	clk.Advance(breakerOpenFor)
	if !b.Admit() {
		t.Fatal("half-open breaker must admit a probe")
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	clk.Advance(breakerOpenFor - time.Millisecond)
	if b.Placeable() {
		t.Fatal("re-opened breaker must stay open a full breakerOpenFor")
	}
	if got := m.Snapshot().BreakerOpens; got != 2 {
		t.Fatalf("breaker_opens = %d, want 2 (open + re-open)", got)
	}
}

// TestBreakerWindowAges: failures older than the window stop counting,
// so a brief historic blip can never combine with fresh noise to trip
// the breaker.
func TestBreakerWindowAges(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Now: clk.Now})
	for i := 0; i < breakerMinRequests-1; i++ {
		b.Failure()
	}
	clk.Advance(breakerWindow + time.Second) // the whole window ages out
	// The fifth failure, but alone in the window.
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed (old failures aged out)", got)
	}
	// Fresh volume with a healthy majority stays closed...
	b.Success()
	b.Success()
	b.Success()
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state at 2/6 failures = %v, want closed", got)
	}
	// ...until failures reach the ratio.
	b.Failure()
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state at 4/8 failures = %v, want open", got)
	}
}

// TestBreakerDefaultsAndRealClock: the zero config works against the
// real clock (the production path).
func TestBreakerDefaultsAndRealClock(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	if !b.Placeable() || !b.Admit() {
		t.Fatal("fresh breaker must place and admit")
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

// TestBreakerBusyMark: a 429 is a Success plus a busy mark. The mark
// keeps the node out of placement for breakerBusyFor of the fake clock
// and no longer; it leaves the state and the error window alone, never
// refuses admission, and in half-open the answer still frees its probe
// slot.
func TestBreakerBusyMark(t *testing.T) {
	clk := newFakeClock()
	var m Metrics
	b := NewBreaker(BreakerConfig{Now: clk.Now, Metrics: &m})
	b.Failure()
	if !b.Admit() {
		t.Fatal("closed breaker refused admission")
	}
	b.Success()
	window := b.buckets
	b.Busy()
	if b.Placeable() {
		t.Fatal("busy node placeable")
	}
	if !b.Admit() {
		t.Fatal("busy node refused admission: a fleet busy throughout could not place")
	}
	b.Cancel()
	if got := b.State(); got != StateClosed || b.buckets != window {
		t.Fatalf("busy mark moved the breaker: state %v, window %+v, want closed and %+v", got, b.buckets, window)
	}
	clk.Advance(breakerBusyFor - time.Nanosecond)
	if b.Placeable() {
		t.Fatal("busy mark lapsed early")
	}
	clk.Advance(time.Nanosecond)
	if !b.Placeable() {
		t.Fatal("busy mark outlived breakerBusyFor")
	}
	if got := m.Snapshot().BreakerOpens; got != 0 {
		t.Fatalf("breaker_opens = %d after a busy mark, want 0", got)
	}

	// Half-open: the shed probe frees its slot; placement waits only for
	// the mark.
	for b.State() != StateOpen {
		b.Failure()
	}
	clk.Advance(breakerOpenFor)
	if !b.Admit() {
		t.Fatal("half-open breaker refused its probe")
	}
	b.Success()
	b.Busy()
	if b.probes != 0 {
		t.Fatalf("probe slots taken after the 429 = %d, want 0", b.probes)
	}
	if b.Placeable() {
		t.Fatal("busy half-open node placeable")
	}
	clk.Advance(breakerBusyFor)
	if got := b.State(); got != StateHalfOpen || !b.Placeable() {
		t.Fatalf("after the mark: state %v, placeable %v, want half-open and placeable", got, b.Placeable())
	}
}
