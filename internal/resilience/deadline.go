package resilience

import (
	"fmt"
	"strconv"
	"time"
)

// MaxDeadline bounds any propagated deadline: a budget beyond an hour is
// not a deadline, and a hostile header must not be able to pin huge
// timers.
const MaxDeadline = time.Hour

// EncodeDeadline formats a remaining budget as the HeaderDeadline value:
// integer milliseconds, rounded up so a sub-millisecond remainder still
// propagates as a positive budget instead of silently vanishing.
func EncodeDeadline(remaining time.Duration) string {
	ms := (remaining + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	return strconv.FormatInt(int64(ms), 10)
}

// ParseDeadline decodes a HeaderDeadline value. Absent ("") means no
// deadline. Values must be a positive integer millisecond count within
// MaxDeadline — a zero, negative, huge or malformed budget is rejected
// rather than clamped, so a corrupt header surfaces as a 400 instead of
// an arbitrarily-timed abort.
func ParseDeadline(s string) (time.Duration, bool, error) {
	if s == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil || ms < 1 || ms > int64(MaxDeadline/time.Millisecond) {
		return 0, false, fmt.Errorf("resilience: bad %s header %q (want integer ms in [1, %d])",
			HeaderDeadline, s, int64(MaxDeadline/time.Millisecond))
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}
