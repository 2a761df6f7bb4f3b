package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvmr/internal/dist"
	"gvmr/internal/volume"
)

// Span names. The benchmark runs one frame at a time, so spans of one
// frame nest by time; parentOf names the layer each span is charged to.
const (
	spanFrame     = "frame"            // harness: call/GET → image bytes in hand
	spanRoundTrip = "client.roundtrip" // http.RoundTripper: request sent → response headers
	spanRender    = "server.render"    // /render handler of the front service
	spanMap       = "worker.map"       // /map handler of a worker
	spanPush      = "worker.push"      // /reduce handler: a peer's stripe push arriving
	spanCollect   = "worker.collect"   // /reduce/collect handler
	spanFill      = "volume.fill"      // volume.Source.Fill of the paged source
)

var parentOf = map[string]string{
	spanRoundTrip: spanFrame,
	spanRender:    spanFrame,
	spanMap:       spanRender,
	spanCollect:   spanRender,
	spanPush:      spanMap,
	spanFill:      spanFrame,
}

// span is one recorded interval. Times are offsets from the recorder's
// start. Parent is the ID of the most recently opened, still open span of
// the parent layer (0 = none): with two /map handlers open at once a
// push may be filed under the receiving worker's own map span, which the
// union-based self times below do not care about.
type span struct {
	ID, Parent int
	Name       string
	Frame      int
	Start, End time.Duration
	BytesIn    int64 // request body bytes (handler spans)
	BytesOut   int64 // response body bytes (handler spans)
}

// recorder keeps spans in memory until the traced round ends. It is off
// outside the traced round: every wrapper then costs one atomic load.
type recorder struct {
	on atomic.Bool

	mu    sync.Mutex
	t0    time.Time
	frame int
	spans []span
	open  map[string][]int // name → stack of open span IDs
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[string][]int{}}
}

func (r *recorder) setFrame(f int) {
	r.mu.Lock()
	r.frame = f
	r.mu.Unlock()
}

// begin opens a span and returns its ID (0 when recording is off).
func (r *recorder) begin(name string) int {
	if !r.on.Load() {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	parent := 0
	if st := r.open[parentOf[name]]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Frame: r.frame, Start: now, End: -1})
	r.open[name] = append(r.open[name], id)
	return id
}

func (r *recorder) end(id int, bytesIn, bytesOut int64) {
	if id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.BytesIn, s.BytesOut = now, bytesIn, bytesOut
	st := r.open[s.Name]
	for i, v := range st {
		if v == id {
			r.open[s.Name] = append(st[:i], st[i+1:]...)
			break
		}
	}
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionOf merges intervals into a sorted, disjoint list.
func unionOf(iv []interval) []interval {
	iv = append([]interval(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, v := range iv {
		if v.hi <= v.lo {
			continue
		}
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, v.hi)
			continue
		}
		out = append(out, v)
	}
	return out
}

func measure(iv []interval) time.Duration {
	var t time.Duration
	for _, v := range unionOf(iv) {
		t += v.hi - v.lo
	}
	return t
}

// selfTime is the part of the parents' union that no child covers: a
// layer's own time once everything it waited on is taken out. Children
// may overlap each other, nest, or stick out of the parents; only their
// union clipped to the parents counts.
func selfTime(parents, children []interval) time.Duration {
	ps, cs := unionOf(parents), unionOf(children)
	total := measure(ps)
	for _, p := range ps {
		for _, c := range cs {
			lo, hi := max(p.lo, c.lo), min(p.hi, c.hi)
			if hi > lo {
				total -= hi - lo
			}
		}
	}
	return total
}

// layerTimes sums, over frames, each span name's union and self time.
// Self time subtracts the spans whose parent layer (parentOf) is that
// name, so within one frame the self times of nested layers add up to
// the frame span.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	type key struct {
		frame int
		name  string
	}
	by := map[key][]interval{}
	frames := map[int]bool{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		by[key{s.Frame, s.Name}] = append(by[key{s.Frame, s.Name}], interval{s.Start, s.End})
		frames[s.Frame] = true
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for k, iv := range by {
		var children []interval
		for child, parent := range parentOf {
			if parent == k.name {
				children = append(children, by[key{k.frame, child}]...)
			}
		}
		total[k.name] += measure(iv)
		self[k.name] += selfTime(iv, children)
	}
	return total, self
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// readable by chrome://tracing and ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace. Each span name gets its
// own lane (tid) so overlapping handler spans stay readable.
func writeChrome(path string, spans []span) error {
	lanes := map[string]int{}
	for _, n := range []string{spanFrame, spanRoundTrip, spanRender, spanMap, spanPush, spanCollect, spanFill} {
		lanes[n] = len(lanes) + 1
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{"frame": s.Frame, "id": s.ID, "parent": s.Parent}
		if s.BytesIn > 0 {
			args["bytes_in"] = s.BytesIn
		}
		if s.BytesOut > 0 {
			args["bytes_out"] = s.BytesOut
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: lanes[s.Name], Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingWriter counts response body bytes for handler spans.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// handler wraps a service's HTTP handler with a span per request of the
// paths the frame pipeline uses; everything else passes through.
func (r *recorder) handler(h http.Handler) http.Handler {
	names := map[string]string{
		"/render":        spanRender,
		dist.MapPath:     spanMap,
		dist.ReducePath:  spanPush,
		dist.CollectPath: spanCollect,
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, ok := names[req.URL.Path]
		if !ok || !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id := r.begin(name)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		r.end(id, max(req.ContentLength, 0), cw.n)
	})
}

// roundTripper records the client's view of a request: sent → response
// headers received. The body is read afterwards, inside the frame span.
type roundTripper struct {
	rec  *recorder
	next http.RoundTripper
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.begin(spanRoundTrip)
	resp, err := t.next.RoundTrip(req)
	t.rec.end(id, 0, 0)
	return resp, err
}

// tracedPaged decorates the demand pager's Fill — the one call through
// which every paged voxel reaches the renderer — with a span. Embedding
// keeps RegionRange and NoteBrickSkip, so brick skipping still works.
type tracedPaged struct {
	*volume.PagedSource
	rec *recorder
}

func (s *tracedPaged) Fill(r volume.Region, dst []float32) error {
	id := s.rec.begin(spanFill)
	err := s.PagedSource.Fill(r, dst)
	s.rec.end(id, 0, 0)
	return err
}
