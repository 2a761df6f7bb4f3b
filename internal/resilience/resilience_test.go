package resilience

import (
	"context"
	"testing"
	"time"
)

func TestRetryBudget(t *testing.T) {
	var m Metrics
	b := NewRetryBudget(&m)
	for i := 0; i < budgetCapacity; i++ {
		if !b.TryTake() {
			t.Fatalf("a full bucket granted only %d of %d tokens", i, budgetCapacity)
		}
	}
	if b.TryTake() {
		t.Fatal("an empty bucket must refuse")
	}
	if got := m.Snapshot().RetryBudgetExhausted; got != 1 {
		t.Fatalf("retry_budget_exhausted = %d, want 1", got)
	}
	// Ten credits of 0.1 sum to 0.9999999999999999, so the eleventh
	// success mints the first token...
	for i := 0; i < 10; i++ {
		b.Credit()
	}
	if b.TryTake() {
		t.Fatal("ten credits must not yet grant a retry")
	}
	b.Credit()
	if !b.TryTake() {
		t.Fatal("eleven credits must mint one token")
	}
	// ...and the balance never exceeds the capacity.
	for i := 0; i < 1000; i++ {
		b.Credit()
	}
	if got := b.Tokens(); got != budgetCapacity {
		t.Fatalf("tokens after overfill = %v, want %d", got, budgetCapacity)
	}
}

func TestPriorityOrderAndParse(t *testing.T) {
	if !(Speculative < Batch && Batch < Interactive) {
		t.Fatal("priority order must be speculative < batch < interactive")
	}
	for _, tc := range []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"", Interactive, true},
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"speculative", Speculative, true},
		{"INTERACTIVE", Interactive, false},
		{"hedge", Interactive, false},
	} {
		got, err := ParsePriority(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParsePriority(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParsePriority(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Round trip through the canonical spelling.
	for _, p := range []Priority{Speculative, Batch, Interactive} {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePriority(%v.String()) = %v, %v", p, back, err)
		}
	}
}

func TestPriorityContext(t *testing.T) {
	if got := PriorityFrom(context.Background()); got != Interactive {
		t.Fatalf("default priority = %v, want interactive", got)
	}
	ctx := WithPriority(context.Background(), Speculative)
	if got := PriorityFrom(ctx); got != Speculative {
		t.Fatalf("priority = %v, want speculative", got)
	}
}

func TestDeadlineCodec(t *testing.T) {
	for _, tc := range []struct {
		in   time.Duration
		want string
	}{
		{time.Second, "1000"},
		{1500 * time.Microsecond, "2"}, // rounds up
		{time.Nanosecond, "1"},         // sub-ms budgets survive as 1ms
		{0, "1"},
		{-time.Second, "1"},
	} {
		if got := EncodeDeadline(tc.in); got != tc.want {
			t.Fatalf("EncodeDeadline(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
	d, ok, err := ParseDeadline("250")
	if err != nil || !ok || d != 250*time.Millisecond {
		t.Fatalf("ParseDeadline(250) = %v, %v, %v", d, ok, err)
	}
	if _, ok, err := ParseDeadline(""); ok || err != nil {
		t.Fatalf("empty header must mean no deadline, got ok=%v err=%v", ok, err)
	}
	for _, bad := range []string{"0", "-5", "abc", "1.5", "1e3", "99999999999999999999",
		"3600001" /* > MaxDeadline */, "9223372036855" /* ms·1e6 wraps negative */, "18446744073710", /* wraps to 448µs */
	} {
		if _, _, err := ParseDeadline(bad); err == nil {
			t.Fatalf("ParseDeadline(%q) accepted, want error", bad)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	var m Metrics
	m.Shed(Speculative)
	m.Shed(Speculative)
	m.Shed(Batch)
	m.Shed(Interactive)
	m.DegradedFrame()
	m.DeadlineAbort()
	s := m.Snapshot()
	if s.ShedsByClass["speculative"] != 2 || s.ShedsByClass["batch"] != 1 || s.ShedsByClass["interactive"] != 1 {
		t.Fatalf("sheds_by_class = %v", s.ShedsByClass)
	}
	if s.DegradedFrames != 1 || s.DeadlineAborts != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Nil receivers are inert, not panics: optional wiring stays simple.
	var nilM *Metrics
	nilM.BreakerOpened()
	nilM.Shed(Batch)
	if got := nilM.Snapshot(); got.BreakerOpens != 0 {
		t.Fatalf("nil metrics snapshot = %+v", got)
	}
}
