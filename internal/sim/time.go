// Package sim is a deterministic discrete-event simulation kernel.
//
// It provides a virtual clock, cooperatively scheduled processes backed by
// goroutines, FIFO resources, and typed channels and wait groups with
// blocking semantics in virtual time. The paper's hardware — GPUs, PCIe
// links, NICs, disks — is modeled as processes and resources on top of this
// kernel, so the reported timings are virtual and bit-reproducible while the
// computation they account for is real.
//
// Exactly one process executes at any instant (the scheduler serialises
// them), so process code may mutate simulation state without locking.
// Heavy computation inside a process may still fan out to host cores with
// ordinary goroutines as long as it joins before the process yields.
package sim

import "fmt"

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a float64 second count to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a float64 millisecond count to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with a unit chosen by magnitude.
func (t Time) String() string {
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v < Microsecond:
		return fmt.Sprintf("%s%dns", neg, int64(v))
	case v < Millisecond:
		return fmt.Sprintf("%s%.2fµs", neg, float64(v)/float64(Microsecond))
	case v < Second:
		return fmt.Sprintf("%s%.3fms", neg, float64(v)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.4fs", neg, float64(v)/float64(Second))
	}
}

// BytesTime returns the serialisation time of n bytes over a link with the
// given bandwidth in bytes per second. Zero or negative bandwidth yields 0.
func BytesTime(n int64, bytesPerSecond float64) Time {
	if bytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSecond * float64(Second))
}

// WorkTime returns the service time of `work` abstract units at `rate`
// units per second. Zero or negative rate yields 0.
func WorkTime(work float64, rate float64) Time {
	if rate <= 0 || work <= 0 {
		return 0
	}
	return Time(work / rate * float64(Second))
}
