package resilience

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// StateClosed: requests flow, outcomes feed the sliding error window.
	StateClosed BreakerState = iota
	// StateOpen: the node is ineligible for placement until
	// breakerOpenFor elapses.
	StateOpen
	// StateHalfOpen: a bounded number of trial requests probe the node;
	// consecutive successes close the breaker, any failure re-opens it.
	StateHalfOpen
)

// String names the state for stats and logs.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's thresholds (DESIGN.md, "Per-worker circuit breakers").
const (
	// breakerWindow is the sliding error-rate window, divided into
	// breakerBuckets buckets so old outcomes age out smoothly instead of
	// all at once.
	breakerWindow  = 10 * time.Second
	breakerBuckets = 5
	// breakerMinRequests is the minimum window volume before the ratio
	// can trip the breaker: two failures out of two requests is noise,
	// not evidence.
	breakerMinRequests = 5
	// breakerFailureRatio trips the breaker when failures/total reaches
	// it over a window with at least breakerMinRequests outcomes.
	breakerFailureRatio = 0.5
	// breakerOpenFor is how long an open breaker refuses placement
	// before half-opening.
	breakerOpenFor = 5 * time.Second
	// breakerHalfOpenProbes bounds concurrent trial requests while
	// half-open: a recovering node gets a trickle, not the full load.
	breakerHalfOpenProbes = 1
	// breakerCloseAfter is the consecutive half-open successes required
	// to close.
	breakerCloseAfter = 2
	// breakerBusyFor is how long a node that shed a request (HTTP 429)
	// is passed over by placement: gvmrd's Retry-After for overload.
	breakerBusyFor = time.Second
)

// BreakerConfig wires a circuit breaker to its environment. The zero
// value runs on the real clock without metrics.
type BreakerConfig struct {
	// Now is the clock seam (default time.Now); the chaos tests inject a
	// fake clock to drive every transition deterministically.
	Now func() time.Time
	// Metrics, when non-nil, receives open and probe events.
	Metrics *Metrics
}

// bucket is one slice of the sliding window.
type bucket struct {
	start      time.Time
	succ, fail int
}

// Breaker is a per-node circuit breaker: closed→open on a sliding
// error-rate window, open→half-open after breakerOpenFor, half-open→closed
// on consecutive probe successes (any probe failure re-opens). Safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu         sync.Mutex
	state      BreakerState
	buckets    [breakerBuckets]bucket
	cur        int       // index of the active bucket
	openUntil  time.Time // open: when to half-open
	probes     int       // half-open: trial requests in flight
	consecSucc int       // half-open: consecutive successes so far
	busyUntil  time.Time // placement passes the node over until then
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	b := &Breaker{cfg: cfg}
	b.buckets[0].start = cfg.Now()
	return b
}

// advance lazily performs time-driven work under b.mu: bucket rotation
// and the open→half-open transition.
func (b *Breaker) advance(now time.Time) {
	if b.state == StateOpen && !now.Before(b.openUntil) {
		b.state = StateHalfOpen
		b.probes = 0
		b.consecSucc = 0
	}
	if b.state != StateClosed {
		return
	}
	const per = breakerWindow / breakerBuckets
	for now.Sub(b.buckets[b.cur].start) >= per {
		next := (b.cur + 1) % breakerBuckets
		b.buckets[next] = bucket{start: b.buckets[b.cur].start.Add(per)}
		b.cur = next
		// A long quiet gap would loop here once per bucket width; cap the
		// catch-up by restarting the window at now.
		if now.Sub(b.buckets[b.cur].start) >= breakerWindow {
			b.buckets = [breakerBuckets]bucket{}
			b.buckets[b.cur].start = now
		}
	}
}

// State reports the breaker's current position (performing any due
// open→half-open transition first).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(b.cfg.Now())
	return b.state
}

// Placeable reports whether placement may choose this node right now:
// never while a busy mark holds; otherwise closed always, open never,
// half-open only while a probe slot is free. It does not consume a probe
// slot — Admit does, at request time.
func (b *Breaker) Placeable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.advance(now)
	if now.Before(b.busyUntil) {
		return false
	}
	switch b.state {
	case StateOpen:
		return false
	case StateHalfOpen:
		return b.probes < breakerHalfOpenProbes
	}
	return true
}

// Admit records the start of one exchange against the breaker. False
// means the breaker refuses (open, or half-open with every probe slot
// taken) and the caller must place elsewhere. A true return must be
// followed by exactly one Success or Failure.
func (b *Breaker) Admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(b.cfg.Now())
	switch b.state {
	case StateOpen:
		return false
	case StateHalfOpen:
		if b.probes >= breakerHalfOpenProbes {
			return false
		}
		b.probes++
		b.cfg.Metrics.HalfOpenProbe()
	}
	return true
}

// Cancel releases an admitted exchange without recording evidence: the
// caller cancelled (hedge win, teardown) or the end-to-end deadline
// expired, and neither outcome says anything about the node's health. In
// half-open this frees the probe slot so the next job can probe again.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(b.cfg.Now())
	if b.state == StateHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// Success records a healthy exchange.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.advance(now)
	switch b.state {
	case StateClosed:
		b.buckets[b.cur].succ++
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		b.consecSucc++
		if b.consecSucc >= breakerCloseAfter {
			b.state = StateClosed
			b.buckets = [breakerBuckets]bucket{}
			b.cur = 0
			b.buckets[0].start = now
		}
	case StateOpen:
		// A straggling success from before the breaker opened proves
		// nothing about the node now; drop it.
	}
}

// Busy marks the node full for breakerBusyFor: it answered, but shed the
// request (HTTP 429). The caller records that answer as a Success first —
// it is evidence of life — so the mark touches neither the state nor the
// error window; it only keeps Placeable false until it lapses. Admit
// still admits a busy node, so a fleet that is busy throughout places
// on its last-resort walk.
func (b *Breaker) Busy() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.busyUntil = b.cfg.Now().Add(breakerBusyFor)
}

// Failure records a node-fault exchange (never a caller cancel, a
// deadline abort, or a 4xx — the caller classifies first).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.advance(now)
	switch b.state {
	case StateClosed:
		b.buckets[b.cur].fail++
		succ, fail := 0, 0
		for _, bk := range b.buckets {
			succ += bk.succ
			fail += bk.fail
		}
		total := succ + fail
		if total >= breakerMinRequests && float64(fail) >= breakerFailureRatio*float64(total) {
			b.open(now)
		}
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		b.open(now)
	case StateOpen:
		// Already open; a straggler changes nothing.
	}
}

// open transitions to StateOpen (caller holds b.mu).
func (b *Breaker) open(now time.Time) {
	b.state = StateOpen
	b.openUntil = now.Add(breakerOpenFor)
	b.consecSucc = 0
	b.probes = 0
	b.cfg.Metrics.BreakerOpened()
}
