package resilience

import "sync"

const (
	// budgetCapacity is the bucket size in tokens. Each retry or hedge
	// costs one token, so it bounds the burst of extra attempts a sick
	// fleet can generate before fast-failing.
	budgetCapacity = 16
	// budgetRefill is the tokens credited per successful exchange:
	// sustained retry amplification is capped at ~10% extra attempts per
	// success — a meltdown-proof ceiling rather than a tuning knob.
	budgetRefill = 0.1
)

// RetryBudget is a token bucket capping cluster-wide retry and hedge
// amplification: every extra attempt (anything beyond a batch's first
// placement) costs a token, and only successes mint new ones. When the
// bucket is empty the caller fast-fails instead of piling retries onto a
// fleet that is already sick. Safe for concurrent use.
type RetryBudget struct {
	mu      sync.Mutex
	metrics *Metrics
	tokens  float64
}

// NewRetryBudget builds a full bucket; m, when non-nil, receives
// exhaustion events.
func NewRetryBudget(m *Metrics) *RetryBudget {
	return &RetryBudget{metrics: m, tokens: budgetCapacity}
}

// TryTake spends one token for a retry or hedge. False means the budget
// is exhausted — the caller must not launch the extra attempt.
func (b *RetryBudget) TryTake() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.metrics.BudgetExhausted()
		return false
	}
	b.tokens--
	return true
}

// Credit refills budgetRefill tokens after a successful exchange, up to
// budgetCapacity.
func (b *RetryBudget) Credit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+budgetRefill, budgetCapacity)
}

// Tokens reports the current balance (tests and stats).
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
