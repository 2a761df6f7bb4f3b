// Package trace collects per-worker activity spans from a MapReduce job
// and exports them in the Chrome trace-event format (chrome://tracing,
// Perfetto), making the paper's overlap story — disk loads, PCIe
// transfers, kernels and network sends proceeding concurrently — directly
// visible on a timeline.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"gvmr/internal/sim"
)

// Span is one closed interval of activity on a (virtual) execution lane.
type Span struct {
	Name  string   // operation, e.g. "kernel:raycast"
	Cat   string   // stage category: setup|map|partition+io|sort|reduce|net
	Lane  string   // execution lane, e.g. "gpu3" or "reducer2"
	Start sim.Time // virtual time
	End   sim.Time
}

// Log accumulates spans. The zero value is ready to use; a nil *Log
// discards everything, so instrumentation can stay unconditional.
type Log struct {
	spans []Span
}

// Add records a span. Nil-safe. Zero-length spans are kept (they still
// mark ordering) but negative ones are rejected.
func (l *Log) Add(s Span) {
	if l == nil {
		return
	}
	if s.End < s.Start {
		return
	}
	l.spans = append(l.spans, s)
}

// Spans returns the recorded spans sorted by start time (stable).
func (l *Log) Spans() []Span {
	if l == nil {
		return nil
	}
	out := append([]Span(nil), l.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded spans.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome serialises the log as a Chrome trace-event array. Lanes
// become thread IDs with name metadata.
func (l *Log) WriteChrome(w io.Writer) error {
	spans := l.Spans()
	laneIDs := map[string]int{}
	var lanes []string
	for _, s := range spans {
		if _, ok := laneIDs[s.Lane]; !ok {
			laneIDs[s.Lane] = len(lanes)
			lanes = append(lanes, s.Lane)
		}
	}
	var events []any
	for i, lane := range lanes {
		events = append(events, chromeMeta{
			Name: "thread_name", Ph: "M", PID: 0, TID: i,
			Args: map[string]any{"name": lane},
		})
	}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  0,
			TID:  laneIDs[s.Lane],
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteChromeFile writes the trace to a file.
func (l *Log) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.WriteChrome(f); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}
