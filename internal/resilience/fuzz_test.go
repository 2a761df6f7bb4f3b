package resilience

import (
	"testing"
	"time"
)

// FuzzParseDeadline hammers the X-Gvmr-Deadline decoder. The header comes
// from the network and arms a timer, so an accepted value must lie in
// [1ms, MaxDeadline] — never negative, never wrapped — and re-encoding it
// must parse back to the same budget.
func FuzzParseDeadline(f *testing.F) {
	for _, s := range []string{"250", "3600000", "9223372036855", "18446744073710"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, ok, err := ParseDeadline(s)
		if err != nil || !ok {
			return
		}
		if d < time.Millisecond || d > MaxDeadline {
			t.Fatalf("ParseDeadline(%q) = %v, outside [1ms, %v]", s, d, MaxDeadline)
		}
		if back, ok, err := ParseDeadline(EncodeDeadline(d)); err != nil || !ok || back != d {
			t.Fatalf("ParseDeadline(EncodeDeadline(%v)) = %v, %v, %v", d, back, ok, err)
		}
	})
}
